"""Block-wise grid passes against the whole-grid code they replaced.

The references below are the frame-by-frame and whole-grid forms of
``stft``, ``istft``, ``Spectrogram.power``, ``spectral_gain`` and ``lsd``,
and the edge-padded 3-tap sum of ``reverberant_psd``.  Outputs must be
equal, not close.  ``stft`` leaves frames whose samples are all zero
untransformed, and ``lsd`` logs only the active clean frames; signals and
grids below carry zero runs so both shortcuts are reached.  ``spectral_gain`` runs its a-priori SNR recursion as
prio = coef * carry + update in every cell, carrying ``carry`` and the
bins' seen-valid flags from block to block; the reference branches per
frame between the smoothed, rectified and held values instead.  The two
agree bit for bit because beta * carry is the product carry * beta, carry
is exactly 0 before a bin's first valid frame, and 1 * carry + 0 is carry.
Frame counts straddle the block size, and hops run from 1 sample to the
whole window.  ``dereverberate``, which streams from STFT frames to
overlap-add, must also equal its stages called one by one, byte for byte.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonolink.core import (
    BLOCK_FRAMES,
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _band_peaks,
    _make_window,
    default_stft_config,
    istft,
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
from sonolink.errors import EstimationError, MetricError
from sonolink.metrics import ACTIVITY_THRESHOLD_DB, DYNAMIC_RANGE_DB, lsd, rr
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
    bins = np.fft.rfft(frames * _make_window(win), axis=1).T
    return Spectrogram(bins=bins, config=cfg, sample_rate=buf.sample_rate,
                       num_samples=buf.samples.size)


def _reference_istft(spec):
    cfg = spec.config
    win = cfg.window_length
    n_frames = spec.num_frames
    window = _make_window(win)
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


def _reference_lsd(clean, test):
    # the whole-grid form: every frame is logged, clipped and differenced
    clean_power = np.abs(clean.bins) ** 2
    with np.errstate(divide="ignore"):
        log_clean = 10.0 * np.log10(clean_power)
        log_test = 10.0 * np.log10(np.abs(test.bins) ** 2)
    top_clean, top_test = log_clean.max(), log_test.max()
    if not (np.isfinite(top_clean) or np.isfinite(top_test)):
        return 0.0
    for db, top, other in ((log_clean, top_clean, top_test), (log_test, top_test, top_clean)):
        top = top if np.isfinite(top) else other
        np.maximum(db, top - DYNAMIC_RANGE_DB, out=db)
    frame_power = np.sum(clean_power, axis=0)
    active = frame_power > frame_power.max() * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    if not active.any():
        return 0.0
    per_frame = np.sqrt(np.mean((log_clean - log_test) ** 2, axis=0))
    return float(np.mean(per_frame[active]))


def _reference_rr(reverberant, processed, clean):
    # the whole-grid form: every grid's power, its silent rows gathered
    band_peak = (np.abs(clean.bins) ** 2).max(axis=1)
    silent = band_peak < band_peak.max() * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    if not silent.any():
        return None
    tiny = np.finfo(np.float64).tiny
    rev, proc = (np.sum((np.abs(g.bins) ** 2)[silent], axis=1) for g in (reverberant, processed))
    ratios = 10.0 * np.log10(np.maximum(rev, tiny) / np.maximum(proc, tiny))
    return float(np.mean(ratios)), list(zip(np.flatnonzero(silent).tolist(), ratios.tolist()))


def _block_mean(gain):
    """mean_gain as dereverberate keeps it: the sum of the sums of
    BLOCK_FRAMES-frame blocks of the frame-major gain, over the cell count."""
    gain = np.asfortranarray(gain)
    total = 0.0
    for s in range(0, gain.shape[1], BLOCK_FRAMES):
        total += float(np.sum(gain[:, s:s + BLOCK_FRAMES]))
    return total / gain.size


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
    # zero runs: none, everything, a padded tail (bench's clean reference),
    # a gap of a window or more whose end falls inside a block of frames,
    # and a gap too short to silence a whole frame
    zeros = draw(st.sampled_from(["none", "all", "tail", "gap", "short gap"]))
    if zeros == "all":
        x[:] = 0.0
    elif zeros == "tail":
        x[draw(st.integers(0, n)):] = 0.0
    elif zeros == "gap":
        stop = draw(st.integers(win, n))
        x[draw(st.integers(0, stop - win)):stop] = 0.0
    elif zeros == "short gap":
        start = draw(st.integers(0, n - 1))
        x[start:start + draw(st.integers(1, win - 1))] = 0.0
    return AudioBuffer(x, draw(st.sampled_from([8000, 44100]))), StftConfig(win, hop)


def _silence_in_second_block():
    # 2 * BLOCK_FRAMES + 1 frames over samples 64-191 of silence: the dead
    # frames run from the middle of the first block into the second
    cfg = StftConfig(8, 2)
    x = np.random.default_rng(7).standard_normal((2 * BLOCK_FRAMES) * 2 + 8)
    x[BLOCK_FRAMES:3 * BLOCK_FRAMES] = 0.0
    return AudioBuffer(x, 8000), cfg


def _fewer_frames_than_overlap():
    # 65 frames at hop 1 under a 128-sample window, across two blocks: no
    # chunk of the output is covered by all 128 frames
    cfg = StftConfig(128, 1)
    return AudioBuffer(np.random.default_rng(8).standard_normal(64 + 128), 8000), cfg


@st.composite
def lsd_pairs(draw):
    """Clean and test grids with zero frames, zero-power bins and silent
    sides, in stft's frame-major layout unless drawn row-major."""
    # bin counts on both sides of numpy's 8-way and 128-element summation
    # blocks, up to the 1025 bins of the 44.1 kHz default
    n_bands = draw(st.sampled_from([2, 9, 33, 129, 1025]))
    n_frames = draw(st.sampled_from(FRAME_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grid(silent):
        # frame levels over 120 dB, so some frames fall below the activity
        # threshold and some bins below the dynamic-range floor
        mags = rng.random((n_frames, n_bands)) * 10.0 ** rng.integers(-8, 4, size=(n_frames, 1))
        bins = mags * np.exp(2j * np.pi * rng.random(mags.shape))
        bins[rng.random(mags.shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
        zero_frames = draw(st.sampled_from(["none", "scattered", "tail"]))
        if zero_frames == "scattered":
            bins[rng.random(n_frames) < 0.4] = 0.0
        elif zero_frames == "tail":  # a packet padded to the recording's length
            bins[draw(st.integers(0, n_frames)):] = 0.0
        if silent:
            bins[:] = 0.0
        return bins.T

    silent = draw(st.sampled_from(["neither"] * 4 + ["clean", "test", "both"]))
    grids = [grid(silent in (side, "both")) for side in ("clean", "test")]
    if draw(st.booleans()):
        grids = [np.ascontiguousarray(g) for g in grids]
    cfg = StftConfig(2 * (n_bands - 1), 1)
    extent = n_frames - 1 + cfg.window_length
    return tuple(Spectrogram(g, cfg, 8000, extent) for g in grids)


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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(signals())
@example(_silence_in_second_block())
@example(_fewer_frames_than_overlap())
def test_stft_power_and_istft_match_references(case):
    buf, cfg = case
    got = stft(buf, cfg)
    want = _reference_stft(buf, cfg)
    assert got.num_frames in FRAME_COUNTS
    # equal as numbers: a skipped frame holds +0 where rfft may give -0
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lsd_pairs())
def test_lsd_matches_reference(case):
    clean, test = case
    got, want = lsd(clean, test), _reference_lsd(clean, test)
    if clean.bins.flags.f_contiguous:
        # exact only if log10 is monotone (the top of the logs is the log of
        # the top power) and each frame sums its bins in the same order
        assert got == want
    else:
        # the whole-grid form sums a row-major grid's bins across rows, in
        # another order than the gathered frames' contiguous sums
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lsd_pairs())
def test_band_peaks_match_power_maxima(case):
    # exact because rounding a square is monotone: max fl(a^2) = fl(max a)^2
    for grid in case:
        for bins in (grid.bins, grid.bins.astype(np.complex64)):
            spec = Spectrogram(bins, grid.config, grid.sample_rate, grid.num_samples)
            assert np.array_equal(_band_peaks(bins), spec.power().max(axis=1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lsd_pairs(), st.integers(0, 2**32 - 1))
def test_rr_matches_reference(case, seed):
    # silent bands in runs longer and shorter than a block of bands; each
    # band's energy must be one pairwise sum over its frames, as the
    # whole-grid form takes it
    clean, processed = case
    rng = np.random.default_rng(seed)
    bins = clean.bins.copy()
    bins[rng.random(clean.num_bands) < rng.choice([0.3, 0.9])] *= 1e-3
    clean = Spectrogram(bins, clean.config, clean.sample_rate, clean.num_samples)
    gains = rng.random((processed.num_bands, 1)) * 4.0
    reverberant = Spectrogram(processed.bins * gains, clean.config, clean.sample_rate,
                              clean.num_samples)
    want = _reference_rr(reverberant, processed, clean)
    if want is None:
        with pytest.raises(MetricError):
            rr(reverberant, processed, clean)
    else:
        assert rr(reverberant, processed, clean) == want


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
    assert diag.mean_gain == _block_mean(gains.gain)


def _staged(buf, cfg, rt60):
    # dereverberate's stages called one by one on whole grids, as perfbench's
    # suppressor probe calls them
    grid = stft(buf, cfg.stft)
    if rt60 is None:
        try:
            rt60 = estimate_rt60(grid).rt60
        except EstimationError:
            rt60 = 0.5
    power = grid.power()
    period = grid.config.frame_period(grid.sample_rate)
    gains = spectral_gain(power, reverberant_psd(power, ReverbModel(rt60), cfg, period), cfg)
    shaped = Spectrogram(grid.bins * gains.gain, grid.config, grid.sample_rate, grid.num_samples)
    return grid, istft(shaped), gains, rt60


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signals(), st.sampled_from([None, 0.3, 1.5]))
@example(_silence_in_second_block(), 0.3)
@example(_fewer_frames_than_overlap(), None)
def test_streamed_dereverberate_equals_its_stages(case, rt60):
    # a recording with RT60 given streams from STFT frames to overlap-add; a
    # grid, or a recording without RT60, is read a block at a time, and a
    # caller's grid is never changed
    buf, stft_cfg = case
    cfg = DereverbConfig(stft=stft_cfg)
    grid, want, gains, want_rt60 = _staged(buf, cfg, rt60)
    given_bins = grid.bins.copy()
    for given_input in (buf, grid):
        out, diag = dereverberate(given_input, cfg, rt60=rt60)
        assert out.samples.tobytes() == want.samples.tobytes()
        assert diag.rt60 == want_rt60
        assert diag.mean_gain == _block_mean(gains.gain)
    assert grid.bins.tobytes() == given_bins.tobytes()


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
    assert diag.mean_gain == _block_mean(gains.gain)


# In units of the complex STFT grid.  Blind, dereverberate holds the grid
# its RT60 estimate reads, one block of frames in each of its buffers (two
# of bins, on every thread) and the overlap-add sum (one signal's float64
# bytes, 1/16 grid at the default configuration): about 1.17 grids.  Its
# RT60 estimate holds two blocks of retained bands' decay curves and one
# block's fit beside the grid, less than those buffers.  A grid-sized float
# temporary (half a grid) crosses this bound.
MAX_PEAK_GRIDS = 1.25
# With RT60 given it holds no grid: on a caller's grid it copies one block
# at a time, so a whole copy (one grid) crosses this bound.
MAX_GRID_INPUT_PEAK_GRIDS = 0.25
# On a recording with RT60 given, in units of the recording's float64
# bytes: the overlap-add sum is one, the block buffers a few MB (1.4 in all
# at 60 s).  A grid is 16 of these at the default configuration.
MAX_STREAM_PEAK_SIGNALS = 2.0
# stft holds its grid, the padded last frame and two blocks of windowed
# frames (one for each half of the blocks): about 1.04 grids.  A copy of the signal (1/16 grid) crosses this
# bound.
MAX_STFT_PEAK_GRIDS = 1.05
# lsd and rr read their grids a block of frames (or bands) at a time through
# reused buffers, one set for each half of the blocks; a float power grid
# (half a grid) crosses these bounds.
MAX_LSD_PEAK_GRIDS = 0.25
MAX_RR_PEAK_GRIDS = 0.25
# estimate_rt60 on a grid takes band peaks one block of frames at a time, in
# each half of the blocks, and holds the decay curves of two blocks of
# retained bands (about 0.11 grids); a float power grid (half a grid)
# crosses this bound.
MAX_RT60_PEAK_GRIDS = 0.25


def _long_noise():
    fs = 44100
    rng = np.random.default_rng(3)
    buf = AudioBuffer(0.1 * rng.standard_normal(10 * fs), fs)
    cfg = DereverbConfig(stft=default_stft_config(fs))
    win, hop = cfg.stft.window_length, cfg.stft.hop
    n_frames = 1 + math.ceil((len(buf) - win) / hop)
    grid_bytes = cfg.stft.num_bins * n_frames * np.dtype(np.complex128).itemsize
    return buf, cfg, grid_bytes


def _in_a_worker(fn, *args, **kwargs):
    """fn(*args, **kwargs) on a thread that is not the main thread, which
    runs its passes' helper tasks itself."""
    result = {}

    def run():
        try:
            result["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # handed back to the test below
            result["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in result:
        raise result["error"]
    return result["value"]


def _on_this_thread(fn, *args, **kwargs):
    return fn(*args, **kwargs)


# The passes run on the main thread, which hands helper tasks to the helper
# pool wherever the process may use a second CPU, and on a worker thread,
# which runs them itself and holds the same block buffers.
THREADS = [_on_this_thread, _in_a_worker]


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dereverberate_memory_is_a_few_grids():
    buf, cfg, grid_bytes = _long_noise()
    grid = stft(buf, cfg.stft)
    for on in THREADS:
        for rt60 in (0.8, None):
            peak = _traced_peak(on, dereverberate, buf, cfg, rt60=rt60)
            assert peak < MAX_PEAK_GRIDS * grid_bytes, (on.__name__, rt60, peak / grid_bytes)
        peak = _traced_peak(on, dereverberate, grid, cfg, rt60=0.8)
        assert peak < MAX_GRID_INPUT_PEAK_GRIDS * grid_bytes, (on.__name__, peak / grid_bytes)


def test_dereverberate_with_rt60_holds_no_grid():
    fs = 44100
    buf = AudioBuffer(0.1 * np.random.default_rng(4).standard_normal(60 * fs), fs)
    cfg = DereverbConfig(stft=default_stft_config(fs))
    for on in THREADS:
        peak = _traced_peak(on, dereverberate, buf, cfg, rt60=0.8)
        assert peak < MAX_STREAM_PEAK_SIGNALS * buf.samples.nbytes, (
            on.__name__, peak / buf.samples.nbytes)


def test_estimate_rt60_on_a_grid_holds_no_power_grid():
    buf, cfg, grid_bytes = _long_noise()
    grid = stft(buf, cfg.stft)
    assert grid.bins.nbytes == grid_bytes
    for on in THREADS:
        peak = _traced_peak(on, estimate_rt60, grid)
        assert peak < MAX_RT60_PEAK_GRIDS * grid_bytes, (on.__name__, peak / grid_bytes)


def _half_silent(buf):
    # a packet padded to the recording's length, as the bench's clean reference
    clean = buf.samples.copy()
    clean[clean.size // 2:] = 0.0
    return AudioBuffer(clean, buf.sample_rate)


def test_stft_memory_is_one_grid():
    buf, cfg, grid_bytes = _long_noise()
    for on in THREADS:
        for signal in (buf, _half_silent(buf)):
            peak = _traced_peak(on, stft, signal, cfg.stft)
            assert peak < MAX_STFT_PEAK_GRIDS * grid_bytes, (on.__name__, peak / grid_bytes)


def test_lsd_memory_logs_only_active_frames():
    buf, cfg, grid_bytes = _long_noise()
    clean = stft(_half_silent(buf), cfg.stft)
    test = stft(buf, cfg.stft)
    for on in THREADS:
        peak = _traced_peak(on, lsd, clean, test)
        assert peak < MAX_LSD_PEAK_GRIDS * grid_bytes, (on.__name__, peak / grid_bytes)


def test_rr_memory_holds_no_power_grid():
    buf, cfg, grid_bytes = _long_noise()
    # a tone leaves nearly every band of the clean reference silent, as the
    # bench's packets leave most of them, so rr reads almost every band
    t = np.arange(len(buf)) / buf.sample_rate
    clean = stft(AudioBuffer(np.sin(2 * np.pi * 1500.0 * t), buf.sample_rate), cfg.stft)
    wet = stft(buf, cfg.stft)
    assert len(rr(wet, wet, clean)[1]) > 0.9 * cfg.stft.num_bins
    for on in THREADS:
        peak = _traced_peak(on, rr, wet, wet, clean)
        assert peak < MAX_RR_PEAK_GRIDS * grid_bytes, (on.__name__, peak / grid_bytes)
