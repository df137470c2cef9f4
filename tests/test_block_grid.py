"""Block-wise grid passes against the whole-grid code they replaced.

The references below are the frame-by-frame and whole-grid forms of
``stft``, ``istft``, ``Spectrogram.power`` and ``spectral_gain``, and the
edge-padded 3-tap sum of ``reverberant_psd``.  Outputs must be equal, not
close.  ``spectral_gain`` runs its a-priori SNR recursion as
prio = coef * carry + update in every cell, carrying ``carry`` and the
bins' seen-valid flags from block to block; the reference branches per
frame between the smoothed, rectified and held values instead.  The two
agree bit for bit because beta * carry is the product carry * beta, carry
is exactly 0 before a bin's first valid frame, and 1 * carry + 0 is carry.
Frame counts straddle the block size, and hops run from 1 sample to the
whole window.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonolink.core import (
    BLOCK_FRAMES,
    AudioBuffer,
    Spectrogram,
    StftConfig,
    default_stft_config,
    istft,
    make_window,
    stft,
)
from sonolink.dereverb import (
    DereverbConfig,
    GainGrid,
    ReverbModel,
    dereverberate,
    reverberant_psd,
    spectral_gain,
)
from sonolink.errors import EstimationError
from sonolink.rt60 import estimate_rt60

FRAME_COUNTS = [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1]


def _reference_stft(buf, cfg):
    x = buf.samples
    win = cfg.window_length
    n_frames = 1 + int(np.ceil((x.size - win) / cfg.hop))
    padded_len = (n_frames - 1) * cfg.hop + win
    if padded_len > x.size:
        x = np.concatenate([x, np.zeros(padded_len - x.size)])
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[:: cfg.hop]
    bins = np.fft.rfft(frames * make_window(win), axis=1).T
    return Spectrogram(bins=bins, config=cfg, sample_rate=buf.sample_rate,
                       num_samples=buf.samples.size)


def _reference_istft(spec):
    cfg = spec.config
    win = cfg.window_length
    n_frames = spec.num_frames
    window = make_window(win)
    frames = np.fft.irfft(spec.bins.T, n=win, axis=1) * window
    total = (n_frames - 1) * cfg.hop + win
    out = np.zeros(total)
    norm = np.zeros(total)
    win_sq = window * window
    for l in range(n_frames):
        start = l * cfg.hop
        out[start:start + win] += frames[l]
        norm[start:start + win] += win_sq
    nonzero = norm > 0.0
    out[nonzero] /= norm[nonzero]
    return AudioBuffer(out[: spec.num_samples], spec.sample_rate)


def _reference_power(spec):
    return np.abs(spec.bins) ** 2


def _reference_psd(power, model, cfg, frame_period):
    shift = cfg.delay_frames(frame_period)
    padded = np.concatenate([power[:, :1], power, power[:, -1:]], axis=1)
    smoothed = (padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]) / 3.0
    attenuation = math.exp(-2.0 * model.delta * cfg.late_delay)
    out = np.zeros_like(power)
    if shift < power.shape[1]:
        out[:, shift:] = attenuation * smoothed[:, :-shift]
    return out


def _reference_gain(power, gamma_rr, cfg):
    n_bands, n_frames = power.shape
    beta = cfg.snr_smoothing
    with np.errstate(divide="ignore", invalid="ignore"):
        snr_post = np.where(gamma_rr > 0.0, power / gamma_rr, np.inf)
    gain = np.empty_like(power)
    carry = np.zeros(n_bands)
    seen_valid = np.zeros(n_bands, dtype=bool)
    for l in range(n_frames):
        valid = gamma_rr[:, l] > 0.0
        rectified = np.where(valid, np.maximum(snr_post[:, l] - 1.0, 0.0), 0.0)
        rectified = np.minimum(rectified, cfg.snr_ceiling)
        smoothed = beta * carry + (1.0 - beta) * rectified
        prio = np.where(valid, np.where(seen_valid, smoothed, rectified), carry)
        g = 1.0 - 1.0 / np.sqrt(1.0 + prio)
        gain[:, l] = np.where(valid, np.maximum(g, cfg.gain_floor), 1.0)
        carry = prio
        seen_valid |= valid
    return GainGrid(gain=gain)


def _reference_dereverberate(buf, cfg, rt60):
    grid = _reference_stft(buf, cfg.stft)
    power = _reference_power(grid)
    if rt60 is None:
        try:
            rt60 = estimate_rt60(grid).rt60
        except EstimationError:
            rt60 = 0.5
    period = grid.config.frame_period(grid.sample_rate)
    gamma = _reference_psd(power, ReverbModel(rt60), cfg, period)
    gains = _reference_gain(power, gamma, cfg)
    shaped = Spectrogram(grid.bins * gains.gain, grid.config, grid.sample_rate, grid.num_samples)
    return _reference_istft(shaped), gains, rt60


@st.composite
def signals(draw):
    """A signal whose STFT has one of FRAME_COUNTS frames, and its config."""
    win = draw(st.sampled_from([4, 8, 16, 32]))
    hop = draw(st.sampled_from([h for h in range(1, win + 1) if win % h == 0]))
    n_frames = draw(st.sampled_from(FRAME_COUNTS))
    # every length in ((n_frames - 2) * hop + win, (n_frames - 1) * hop + win]
    # gives n_frames frames; a short tail exercises the zero padding
    short = draw(st.integers(0, hop - 1)) if n_frames > 1 else 0
    n = (n_frames - 1) * hop + win - short
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** draw(st.integers(-6, 3))
    return AudioBuffer(x, draw(st.sampled_from([8000, 44100]))), StftConfig(win, hop)


@st.composite
def psd_grids(draw):
    """Non-negative power grids with silent stretches, and a frame period."""
    n_bands = draw(st.integers(1, 6))
    n_frames = draw(st.sampled_from(FRAME_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    power = rng.random((n_bands, n_frames)) * 10.0 ** rng.integers(-12, 6, size=(n_bands, 1))
    power[rng.random(power.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    if draw(st.booleans()):
        power = np.asfortranarray(power)  # the layout stft's grids have
    # delays of one frame up to past the end of the grid
    shift = draw(st.integers(1, n_frames + 2))
    return power, 0.080 / shift


@st.composite
def gain_inputs(draw):
    """Power and reverberant-PSD grids with interior zeros and silent rows."""
    n_bands = draw(st.integers(1, 6))
    n_frames = draw(st.sampled_from([0, *FRAME_COUNTS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_bands, n_frames)
    scale = 10.0 ** rng.integers(-12, 6)
    power = rng.random(shape) * scale
    # a posteriori SNRs from 1/100 to 100, below 1 and past the ceiling
    gamma = power * 10.0 ** rng.uniform(-2.0, 2.0, shape)
    gamma[:, : rng.integers(0, n_frames + 1)] = 0.0  # no history yet
    gamma[rng.random(shape) < draw(st.sampled_from([0.3, 0.05, 0.0]))] = 0.0
    if n_bands > 1 and draw(st.booleans()):
        gamma[rng.integers(n_bands)] = 0.0  # a row that never turns valid
    if draw(st.booleans()):
        power, gamma = np.asfortranarray(power), np.asfortranarray(gamma)
    return power, gamma, DereverbConfig()


def _first_valid_at(frames, n_frames):
    # bin i has no history before frames[i] and is valid from there on
    rng = np.random.default_rng(len(frames) * n_frames)
    power = rng.random((len(frames), n_frames))
    gamma = power * 10.0 ** rng.uniform(-2.0, 2.0, power.shape)
    for row, first in zip(gamma, frames):
        row[:first] = 0.0
    return power, gamma, DereverbConfig()


def _held_in_second_block():
    # bins turn valid in the first block, go invalid across the block
    # boundary and again inside the second block, then recover
    power = np.full((2, 2 * BLOCK_FRAMES + 1), 4.0)
    gamma = np.ones_like(power)
    gamma[:, :3] = 0.0
    gamma[0, BLOCK_FRAMES - 2:BLOCK_FRAMES + 2] = 0.0
    gamma[1, BLOCK_FRAMES + 5:BLOCK_FRAMES + 9] = 0.0
    return power, gamma, DereverbConfig()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(signals())
def test_stft_power_and_istft_match_references(case):
    buf, cfg = case
    got = stft(buf, cfg)
    want = _reference_stft(buf, cfg)
    assert got.num_frames in FRAME_COUNTS
    assert np.array_equal(got.bins, want.bins)
    assert np.array_equal(got.power(), _reference_power(want))
    assert np.array_equal(istft(got).samples, _reference_istft(want).samples)

    # a shaped grid, in either memory layout, trimmed to the signal or to
    # the whole overlap-add extent
    rng = np.random.default_rng(buf.samples.size)
    shaped = want.bins * rng.random(want.bins.shape)
    extent = (got.num_frames - 1) * cfg.hop + cfg.window_length
    for bins in (shaped, np.ascontiguousarray(shaped)):
        for num_samples in (buf.samples.size, extent):
            spec = Spectrogram(bins, cfg, buf.sample_rate, num_samples)
            assert np.array_equal(istft(spec).samples, _reference_istft(spec).samples)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(psd_grids(), st.sampled_from([0.3, 1.2]))
def test_reverberant_psd_matches_reference(case, rt60):
    power, period = case
    cfg = DereverbConfig()
    model = ReverbModel(rt60)
    got = reverberant_psd(power, model, cfg, period)
    assert np.array_equal(got, _reference_psd(power, model, cfg, period))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gain_inputs())
@example((np.ones((3, 0)), np.ones((3, 0)), DereverbConfig()))
@example(_held_in_second_block())
# first valid on a block's last frame, on the next block's first, and on
# the third block's first
@example(_first_valid_at([BLOCK_FRAMES - 1, BLOCK_FRAMES, 2 * BLOCK_FRAMES], 3 * BLOCK_FRAMES))
# valid only at its last frame, alone in the last block
@example(_first_valid_at([3, 2 * BLOCK_FRAMES], 2 * BLOCK_FRAMES + 1))
# every bin valid from the first frame: no later block has a bin turn valid
@example(_first_valid_at([0, 0, 0], 2 * BLOCK_FRAMES + 1))
def test_spectral_gain_matches_reference(case):
    power, gamma, cfg = case
    got = spectral_gain(power, gamma, cfg)
    want = _reference_gain(power, gamma, cfg)
    assert got.gain.shape == power.shape
    assert np.array_equal(got.gain, want.gain)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(signals(), st.sampled_from([None, 0.3, 1.5]))
def test_dereverberate_matches_reference(case, rt60):
    buf, stft_cfg = case
    cfg = DereverbConfig(stft=stft_cfg)
    out, diag = dereverberate(buf, cfg, rt60=rt60)
    want, gains, want_rt60 = _reference_dereverberate(buf, cfg, rt60)
    assert np.array_equal(out.samples, want.samples)
    assert diag.rt60 == want_rt60
    assert diag.mean_gain == float(gains.gain.mean())


def test_dereverberate_matches_reference_at_44k():
    # the default 2048/128 configuration on a decaying tone burst, blind
    fs = 44100
    rng = np.random.default_rng(5)
    t = np.arange(2 * fs) / fs
    x = 0.01 * rng.standard_normal(t.size)
    x[: fs // 4] += np.sin(2 * np.pi * 1500 * t[: fs // 4])
    x[fs // 4:] += rng.standard_normal(t.size - fs // 4) * np.exp(-7.0 * t[: t.size - fs // 4])
    buf = AudioBuffer(x, fs)
    cfg = DereverbConfig(stft=default_stft_config(fs))
    out, diag = dereverberate(buf, cfg)
    want, gains, want_rt60 = _reference_dereverberate(buf, cfg, None)
    assert diag.rt60_estimated
    assert np.array_equal(out.samples, want.samples)
    assert diag.rt60 == want_rt60
    assert diag.mean_gain == float(gains.gain.mean())


# In units of the complex STFT grid: the suppressor holds the grid, its power,
# PSD and gain (half a grid each), 2.5 in all; the shaped grid is built after
# power and PSD are freed.  One grid-sized float temporary more crosses this
# bound.
MAX_PEAK_GRIDS = 3.0


def test_dereverberate_memory_is_a_few_grids():
    fs = 44100
    rng = np.random.default_rng(3)
    buf = AudioBuffer(0.1 * rng.standard_normal(10 * fs), fs)
    cfg = DereverbConfig(stft=default_stft_config(fs))
    win, hop = cfg.stft.window_length, cfg.stft.hop
    n_frames = 1 + math.ceil((len(buf) - win) / hop)
    grid_bytes = cfg.stft.num_bins * n_frames * np.dtype(np.complex128).itemsize

    for rt60 in (0.8, None):
        tracemalloc.start()
        try:
            dereverberate(buf, cfg, rt60=rt60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MAX_PEAK_GRIDS * grid_bytes, (rt60, peak / grid_bytes)
