"""Blind RT60 estimation: decay curves, line fits, and whole-pipeline properties.

The per-band pipeline the block pass replaced (an envelope per band, its
decay start, its Schroeder curve and an ``np.polyfit`` line) is kept below
as the reference.  The curves come from the same operations in the same
order, so band sets and validity must agree exactly; the closed-form line
fit differs from ``np.polyfit`` only in rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonolink.core import BLOCK_FRAMES, AudioBuffer, Spectrogram, StftConfig, stft
from sonolink.errors import EstimationError, InvalidArgumentError
from sonolink.rt60 import _decay_curves, _fit_decays, estimate_rt60
from sonolink.simulate import RirSpec, synth_rir


def _burst(rt60, seed, fs=8000, dur=1.2):
    """Noise burst with a known exponential energy decay."""
    rng = np.random.default_rng(seed)
    n = int(dur * fs)
    t = np.arange(n) / fs
    x = rng.standard_normal(n) * np.exp(-3.0 * np.log(10.0) / rt60 * t)
    x[:50] *= np.linspace(0.0, 1.0, 50)  # short attack so the peak is strict
    return AudioBuffer(x, fs)


def _scaled(buf, factor):
    return AudioBuffer(buf.samples * factor, buf.sample_rate)


def _grid(power_rows, fs=100):
    """Spectrogram with the requested per-band power envelopes, hop 1."""
    rows = np.sqrt(np.asarray(power_rows, dtype=np.float64))
    cfg = StftConfig(window_length=2 * (rows.shape[0] - 1), hop=1)
    return Spectrogram(bins=rows.astype(np.complex128), config=cfg, sample_rate=fs,
                       num_samples=rows.shape[1] - 1 + cfg.window_length)


SMALL = StftConfig(window_length=512, hop=32)


def _decay(n, rt_frames):
    """Power envelope falling 60 dB every ``rt_frames`` frames from frame 0."""
    return 10.0 ** (-6.0 * np.arange(n) / rt_frames)


def _curve(energy, offset):
    """One band's decay curve in frame order, and whether it is usable."""
    power = np.asarray(energy, dtype=np.float64)[None, ::-1]
    curves, ok = _decay_curves(np.ascontiguousarray(power), offset)
    return curves[0, ::-1], bool(ok[0])


def _fit(curve_db, period):
    rt60_k, r2 = _fit_decays(np.asarray(curve_db, dtype=np.float64)[None, ::-1], period)
    return float(rt60_k[0]), float(r2[0])


# ---------------------------------------------------------------------------
# reference: the per-band pipeline
# ---------------------------------------------------------------------------


def _reference_fit(edc_db, frame_period):
    mask = (edc_db <= -5.0) & (edc_db >= -35.0)
    if np.count_nonzero(mask) < 5:
        return 0.0, 0.0
    times = np.nonzero(mask)[0] * frame_period
    values = edc_db[mask]
    slope, intercept = np.polyfit(times, values, 1)
    ss_res = float(np.sum((values - (slope * times + intercept)) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0, 0.0
    r2 = 1.0 - ss_res / ss_tot
    if slope >= 0.0 or r2 < 0.8:
        return 0.0, r2
    return -60.0 / float(slope), r2


def _reference_per_band(power, frame_period, threshold_db):
    offset = math.ceil(0.080 / frame_period)
    if power.size == 0 or power.max() == 0.0:
        return []
    peaks = power.max(axis=1)
    per_band = []
    for k in np.nonzero(peaks >= peaks.max() * 10.0 ** (-threshold_db / 10.0))[0]:
        energy = power[k]
        peak = int(np.argmax(energy))
        start = min(peak + offset, energy.size - 1)
        curve = np.cumsum(energy[start:][::-1])[::-1]
        if np.count_nonzero(energy == energy[peak]) != 1 or curve[0] <= 0.0:
            per_band.append((int(k), 0.0, 0.0))
            continue
        with np.errstate(divide="ignore"):
            edc_db = 10.0 * np.log10(curve / curve[0])
        per_band.append((int(k), *_reference_fit(edc_db, frame_period)))
    return per_band


KINDS = 6


def _power_grid(n_bands, n_frames, offset, seed, scale):
    """Bands that cycle through every kind the estimator must sort out.

    Noisy exponential decays with or without a noise floor, tied peaks,
    energy that ends before the decay start, flat and silent bands, bands
    far below the others, and late onsets that clamp the decay start to
    the last frame.
    """
    rng = np.random.default_rng(seed)
    power = np.zeros((n_bands, n_frames))
    for k in range(n_bands):
        kind = (k + seed) % KINDS
        onset = int(rng.integers(0, n_frames if kind == 5 else max(n_frames // 4, 1)))
        body = _decay(n_frames - onset, rng.uniform(3.0, 200.0)) * rng.exponential(size=n_frames - onset)
        body[0] = body.max() * 2.0
        body += rng.choice([0.0, 1e-7, 1e-3]) * body[0]
        if kind == 1 and body.size > 1:  # a tie for the peak
            body[int(rng.integers(1, body.size))] = body[0]
        elif kind == 2:  # nothing left from the decay start on
            body[min(int(rng.integers(1, offset + 1)), body.size):] = 0.0
        elif kind == 3:
            body[:] = rng.choice([0.0, 1.0])
        elif kind == 4:
            body *= 10.0 ** -rng.uniform(3.0, 9.0)
        power[k, onset:] = body
    return power * scale


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n_bands=st.integers(2, 3 * BLOCK_FRAMES),  # a spectrogram has at least 2 bins
    n_frames=st.integers(1, 160),
    fs=st.sampled_from([10, 25, 50, 100, 200]),  # frame periods 0.1 ... 0.005 s
    threshold_db=st.sampled_from([0.0, 10.0, 40.0, 80.0]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1.0, 1.0, 2.0**-40, 0.0]),
)
@example(n_bands=BLOCK_FRAMES + 3, n_frames=150, fs=100, threshold_db=80.0, seed=0, scale=1.0)
@example(n_bands=5, n_frames=40, fs=100, threshold_db=40.0, seed=1, scale=0.0)
@example(n_bands=70, n_frames=2, fs=200, threshold_db=40.0, seed=2, scale=1.0)
def test_block_pass_matches_per_band_reference(n_bands, n_frames, fs, threshold_db, seed, scale):
    _check_per_band_reference(n_bands, n_frames, fs, threshold_db, seed, scale)


def test_three_band_blocks_match_per_band_reference():
    # the middle block's decay curves are built while block 0 is fitted, and
    # it is fitted while the last block's curves are built
    want = _check_per_band_reference(3 * BLOCK_FRAMES, 150, 100, 200.0, 5, 1.0)
    assert 2 * BLOCK_FRAMES < len(want) <= 3 * BLOCK_FRAMES
    assert sum(rt60_k > 0.0 for _, rt60_k, _ in want) > BLOCK_FRAMES


def _check_per_band_reference(n_bands, n_frames, fs, threshold_db, seed, scale):
    """Checks estimate_rt60 on a _power_grid against _reference_per_band,
    and returns the reference's per-band results."""
    period = 1.0 / fs
    power = _power_grid(n_bands, n_frames, math.ceil(0.080 / period), seed, scale)
    # the reference reads the power of the real bins the spectrogram holds
    bins = np.sqrt(power)
    want = _reference_per_band(bins * bins, period, threshold_db)
    if not any(rt60_k > 0.0 for _, rt60_k, _ in want):
        with pytest.raises(EstimationError):
            estimate_rt60(_grid(power, fs), threshold_db=threshold_db)
        return want
    got = estimate_rt60(_grid(power, fs), threshold_db=threshold_db).per_band
    assert [k for k, _, _ in got] == [k for k, _, _ in want]
    assert [v > 0.0 for _, v, _ in got] == [v > 0.0 for _, v, _ in want]
    np.testing.assert_allclose([v for _, v, _ in got], [v for _, v, _ in want], rtol=1e-12, atol=0)
    np.testing.assert_allclose([r for _, _, r in got], [r for _, _, r in want], rtol=1e-12, atol=0)
    return want


def _masked_fit(curves, period):
    # the fit with every run-wide step a fresh array, masked by np.where
    below = np.count_nonzero(curves < -35.0, axis=1)
    count = np.count_nonzero(curves <= -5.0, axis=1) - below
    pos = np.arange(max(int(count.max(initial=0)), 1))
    inside = pos < count[:, None]
    run = np.take_along_axis(curves, np.minimum(below[:, None] + pos, curves.shape[1] - 1), axis=1)
    last = np.take_along_axis(run, np.maximum(count - 1, 0)[:, None], axis=1)[:, 0]
    fitted = (count >= 5) & (run[:, 0] != last)
    dt = np.where(inside, ((count[:, None] - 1) / 2.0 - pos) * period, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(inside, run, 0.0).sum(axis=1) / count
        dy = np.where(inside, run - mean[:, None], 0.0)
        slope = np.sum(dt * dy, axis=1) / np.sum(dt * dt, axis=1)
        ss_res = np.sum((dy - slope[:, None] * dt) ** 2, axis=1)
        r2 = np.where(fitted, 1.0 - ss_res / np.sum(dy * dy, axis=1), 0.0)
        good = fitted & (slope < 0.0) & (r2 >= 0.8)
        return np.where(good, -60.0 / slope, 0.0), r2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_bands=st.integers(1, BLOCK_FRAMES),
    n_frames=st.integers(1, 400),
    period=st.sampled_from([0.04, 0.01, 0.003]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_the_masked_fit_bit_for_bit(n_bands, n_frames, period, seed):
    # _fit_decays reuses its run and residual buffers in place; it must give
    # the bytes of the fit that masks fresh arrays
    offset = math.ceil(0.080 / period)
    curves, _ = _decay_curves(_power_grid(n_bands, n_frames, offset, seed, 1.0)[:, ::-1].copy(), offset)
    got, want = _fit_decays(curves, period), _masked_fit(curves, period)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# decay curve
# ---------------------------------------------------------------------------


class TestEdc:
    def test_constant_envelope_closed_form(self):
        n = 200
        energy = np.concatenate([[2.0], np.ones(n)])  # strict peak, then a constant tail
        curve, ok = _curve(energy, 1)
        expected = 10.0 * np.log10((n - np.arange(n)) / n)
        assert ok
        assert np.allclose(curve[1:], expected, atol=1e-12)

    def test_matches_backward_cumsum(self):
        rng = np.random.default_rng(4)
        energy = rng.random(300)
        energy[0] = 2.0
        curve, ok = _curve(energy, 10)
        tail = energy[10:]
        ref = np.cumsum(tail[::-1])[::-1]
        assert ok
        assert np.array_equal(curve[10:], 10 * np.log10(ref / ref[0]))

    def test_zero_at_start(self):
        energy = np.random.default_rng(0).random(50)
        energy[0] = 2.0
        assert _curve(energy, 7)[0][7] == 0.0

    def test_empty_tail(self):
        energy = np.concatenate([[2.0], np.ones(9), np.zeros(50)])
        assert not _curve(energy, 12)[1]
        est = estimate_rt60(_grid(np.stack([_decay(60, 40.0), energy]), fs=150))  # 0.08/12 s frames
        assert est.per_band[1] == (1, 0.0, 0.0)


class TestDecayStart:
    def test_peak_plus_offset(self):
        energy = np.zeros(100)
        energy[20] = 1.0
        energy[21:] = 0.5
        curve, ok = _curve(energy, 30)
        assert ok
        assert curve[50] == 0.0
        assert curve[49] > 0.0 > curve[51]

    def test_clamped_to_last_frame(self):
        curve, ok = _curve(np.linspace(1.0, 0.1, 40), 1000)
        assert ok
        assert curve[39] == 0.0
        assert curve[38] > 0.0

    def test_flat_envelope_has_no_peak(self):
        assert not _curve(np.ones(50), 10)[1]
        est = estimate_rt60(_grid(np.stack([_decay(200, 40.0), np.ones(200)])))
        assert est.per_band[1] == (1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# line fit
# ---------------------------------------------------------------------------


class TestFit:
    @pytest.mark.parametrize("rt60", [0.5, 1.0, 2.0])
    def test_exact_line(self, rt60):
        # a perfect -60/rt60 dB/s line must invert to exactly rt60
        period = 0.01
        t = np.arange(120) * period
        curve = -60.0 / rt60 * t
        rt60_k, r2 = _fit(curve, period)
        assert rt60_k == pytest.approx(rt60, rel=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_too_few_points_in_window(self):
        # one frame per 30 dB leaves a single sample between -5 and -35
        curve = np.array([0.0, -30.0, -60.0, -90.0])
        assert _fit(curve, 0.5) == (0.0, 0.0)

    def test_rising_curve_rejected(self):
        t = np.arange(100) * 0.01
        assert _fit(-20.0 + 0.0 * t, 0.01) == (0.0, 0.0)

    def test_poor_fit_rejected(self):
        # never rising, but a steep drop then a long shelf: two slopes, no line
        curve = np.concatenate([np.linspace(-5.0, -33.0, 6), np.linspace(-33.2, -35.0, 194)])
        rt60_k, r2 = _fit(curve, 0.01)
        assert rt60_k == 0.0
        assert r2 < 0.8

    def test_bad_period(self):
        # the frame period comes from a spectrogram, which needs a positive rate
        with pytest.raises(InvalidArgumentError, match="sample_rate"):
            estimate_rt60(_grid(np.stack([_decay(200, 40.0)] * 3), fs=0))


# ---------------------------------------------------------------------------
# subband selection
# ---------------------------------------------------------------------------


def test_subband_threshold_drops_quiet_bands():
    loud = _decay(300, 50.0)
    quiet = loud * 1e-6  # 60 dB down, beyond the 40 dB inclusion window
    est = estimate_rt60(_grid(np.stack([loud, quiet, loud * 0.5])), threshold_db=40.0)
    assert [k for k, _, _ in est.per_band] == [0, 2]
    assert est.bands_used == 2
    assert est.rt60 == pytest.approx(0.5, rel=0.05)


def test_subband_all_zero():
    with pytest.raises(EstimationError):
        estimate_rt60(_grid(np.zeros((3, 30))))


@pytest.mark.parametrize(
    "threshold_db", [-10.0, float("nan"), float("inf"), -float("inf"), "40", True]
)
def test_bad_threshold_is_rejected(threshold_db):
    with pytest.raises(InvalidArgumentError, match="threshold_db"):
        estimate_rt60(_burst(0.4, seed=0), SMALL, threshold_db=threshold_db)


# ---------------------------------------------------------------------------
# full estimator
# ---------------------------------------------------------------------------


class TestEstimate:
    def test_synthetic_rir_close(self):
        rir = synth_rir(RirSpec(rt60=1.0, seed=3), 44100)
        est = estimate_rt60(rir)
        assert 0.85 <= est.rt60 <= 1.2
        assert est.bands_used > 0

    def test_mean_of_valid_bands(self):
        est = estimate_rt60(_burst(0.4, seed=0), SMALL)
        valid = [v for _, v, _ in est.per_band if v != 0.0]
        assert est.bands_used == len(valid)
        assert est.rt60 == pytest.approx(np.mean(valid), rel=1e-12)
        assert est.rt60 > 0

    def test_spectrogram_input_matches_buffer_bit_exact(self):
        buf = _burst(0.4, seed=0)
        ref = estimate_rt60(buf, SMALL)
        from_grid = estimate_rt60(stft(buf, SMALL))
        assert from_grid.rt60 == ref.rt60
        assert from_grid.per_band == ref.per_band
        assert estimate_rt60(stft(buf, SMALL), SMALL).rt60 == ref.rt60

    def test_spectrogram_with_other_config_rejected(self):
        grid = stft(_burst(0.4, seed=0), SMALL)
        with pytest.raises(InvalidArgumentError, match="configuration"):
            estimate_rt60(grid, StftConfig(window_length=256, hop=16))

    def test_impulse_has_no_decay_to_fit(self):
        x = np.zeros(8000)
        x[1500] = 1.0
        with pytest.raises(EstimationError):
            estimate_rt60(AudioBuffer(x, 44100))

    def test_amplitude_invariance_bit_exact(self):
        # power-of-two scaling shifts every float exponent; ratios are untouched
        for seed in range(25):
            buf = _burst(0.25 + 0.03 * seed, seed)
            ref = estimate_rt60(buf, SMALL).rt60
            scaled = estimate_rt60(_scaled(buf, 2.0 ** (seed - 12)), SMALL).rt60
            assert scaled == ref

    def test_amplitude_invariance_arbitrary_factor(self):
        buf = _burst(0.5, seed=42)
        ref = estimate_rt60(buf, SMALL).rt60
        assert estimate_rt60(_scaled(buf, 3.7), SMALL).rt60 == pytest.approx(ref, rel=1e-9)

    def test_time_shift_within_one_hop(self):
        buf = _burst(0.45, seed=5)
        ref = estimate_rt60(buf, SMALL).rt60
        shifted = AudioBuffer(np.concatenate([np.zeros(30), buf.samples]), 8000)
        moved = estimate_rt60(shifted, SMALL).rt60
        assert abs(moved - ref) / ref < 0.05

    def test_monotone_over_sweep(self):
        # median estimate strictly increases with the true reverberation time
        cfg = StftConfig(window_length=1024, hop=64)
        medians = []
        for rt in (0.4, 0.8, 1.2, 1.6, 2.0):
            ests = [
                estimate_rt60(synth_rir(RirSpec(rt60=rt, seed=s), 16000), cfg).rt60
                for s in range(3)
            ]
            medians.append(np.median(ests))
        assert all(a < b for a, b in zip(medians, medians[1:]))

    def test_threshold_widens_band_set(self):
        buf = _burst(0.5, seed=9)
        narrow = estimate_rt60(buf, SMALL, threshold_db=10.0)
        wide = estimate_rt60(buf, SMALL, threshold_db=60.0)
        assert wide.bands_used >= narrow.bands_used
