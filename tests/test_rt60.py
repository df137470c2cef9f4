"""Blind RT60 estimation: EDC math, line fits, and whole-pipeline properties."""

import numpy as np
import pytest

from sonolink.core import AudioBuffer, Spectrogram, StftConfig, stft
from sonolink.errors import (
    EmptyBandError,
    EstimationError,
    InvalidArgumentError,
    NoPeakError,
)
from sonolink.rt60 import (
    SubbandEnvelope,
    decay_start,
    edc,
    estimate_rt60,
    fit_rt60_band,
    subband_envelopes,
)
from sonolink.simulate import RirSpec, synth_rir


def _burst(rt60, seed, fs=8000, dur=1.2):
    """Noise burst with a known exponential energy decay."""
    rng = np.random.default_rng(seed)
    n = int(dur * fs)
    t = np.arange(n) / fs
    x = rng.standard_normal(n) * np.exp(-3.0 * np.log(10.0) / rt60 * t)
    x[:50] *= np.linspace(0.0, 1.0, 50)  # short attack so the peak is strict
    return AudioBuffer(x, fs)


SMALL = StftConfig(window_length=512, hop=32)


# ---------------------------------------------------------------------------
# decay curve
# ---------------------------------------------------------------------------


class TestEdc:
    def test_constant_envelope_closed_form(self):
        n = 200
        env = SubbandEnvelope(band_index=0, energy=np.ones(n), peak_frame=0)
        curve = edc(env, 0)
        expected = 10.0 * np.log10((n - np.arange(n)) / n)
        assert np.allclose(curve, expected, atol=1e-12)

    def test_matches_backward_cumsum(self):
        rng = np.random.default_rng(4)
        energy = rng.random(300)
        env = SubbandEnvelope(band_index=3, energy=energy, peak_frame=0)
        curve = edc(env, 10)
        tail = energy[10:]
        ref = np.cumsum(tail[::-1])[::-1]
        assert np.allclose(curve, 10 * np.log10(ref / ref[0]), atol=1e-12)

    def test_zero_at_start(self):
        env = SubbandEnvelope(band_index=0, energy=np.random.default_rng(0).random(50),
                              peak_frame=0)
        assert edc(env, 7)[0] == 0.0

    def test_empty_tail(self):
        energy = np.concatenate([np.ones(10), np.zeros(10)])
        env = SubbandEnvelope(band_index=0, energy=energy, peak_frame=0)
        with pytest.raises(EmptyBandError):
            edc(env, 12)

    def test_bad_start(self):
        env = SubbandEnvelope(band_index=0, energy=np.ones(10), peak_frame=0)
        with pytest.raises(InvalidArgumentError):
            edc(env, 10)


class TestDecayStart:
    def test_peak_plus_offset(self):
        energy = np.zeros(100)
        energy[20] = 1.0
        energy[21:] = 0.5
        env = SubbandEnvelope(band_index=0, energy=energy, peak_frame=20)
        assert decay_start(env, 30) == 50
        assert env.decay_start_frame == 50

    def test_clamped_to_last_frame(self):
        energy = np.linspace(1.0, 0.1, 40)
        env = SubbandEnvelope(band_index=0, energy=energy, peak_frame=0)
        assert decay_start(env, 1000) == 39

    def test_flat_envelope_has_no_peak(self):
        env = SubbandEnvelope(band_index=0, energy=np.ones(50), peak_frame=0)
        with pytest.raises(NoPeakError):
            decay_start(env, 10)

    def test_negative_offset(self):
        env = SubbandEnvelope(band_index=0, energy=np.arange(10.0), peak_frame=9)
        with pytest.raises(InvalidArgumentError):
            decay_start(env, -1)


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
        rt60_k, r2 = fit_rt60_band(curve, period)
        assert rt60_k == pytest.approx(rt60, rel=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_too_few_points_in_window(self):
        # one frame per 30 dB leaves a single sample between -5 and -35
        curve = np.array([0.0, -30.0, -60.0, -90.0])
        assert fit_rt60_band(curve, 0.5) == (0.0, 0.0)

    def test_rising_curve_rejected(self):
        t = np.arange(100) * 0.01
        assert fit_rt60_band(-20.0 + 0.0 * t, 0.01)[0] == 0.0

    def test_poor_fit_rejected(self):
        rng = np.random.default_rng(8)
        t = np.arange(200) * 0.01
        wild = -30.0 + 15.0 * rng.standard_normal(200)
        rt60_k, r2 = fit_rt60_band(wild, 0.01)
        assert rt60_k == 0.0
        assert r2 < 0.8

    def test_bad_period(self):
        with pytest.raises(InvalidArgumentError):
            fit_rt60_band(np.linspace(0, -60, 50), 0.0)


# ---------------------------------------------------------------------------
# subband selection
# ---------------------------------------------------------------------------


def _grid(power_rows, fs=8000):
    """Spectrogram with the requested per-band magnitude envelopes."""
    rows = np.sqrt(np.asarray(power_rows, dtype=np.float64))
    cfg = StftConfig(window_length=2 * (rows.shape[0] - 1), hop=(rows.shape[0] - 1) // 2)
    return Spectrogram(bins=rows.astype(np.complex128), config=cfg, sample_rate=fs)


def test_subband_threshold_drops_quiet_bands():
    loud = np.linspace(1.0, 0.1, 30)
    quiet = loud * 1e-6  # 60 dB down, beyond the 40 dB inclusion window
    spec = _grid(np.stack([loud, quiet, loud * 0.5]))
    envs = subband_envelopes(spec, threshold_db=40.0)
    assert [e.band_index for e in envs] == [0, 2]
    for e in envs:
        assert np.all(e.energy >= 0.0)
        assert e.peak_frame == int(np.argmax(e.energy))


def test_subband_all_zero():
    spec = _grid(np.zeros((3, 30)))
    assert subband_envelopes(spec) == []


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
            scaled = estimate_rt60(buf.scaled(2.0 ** (seed - 12)), SMALL).rt60
            assert scaled == ref

    def test_amplitude_invariance_arbitrary_factor(self):
        buf = _burst(0.5, seed=42)
        ref = estimate_rt60(buf, SMALL).rt60
        assert estimate_rt60(buf.scaled(3.7), SMALL).rt60 == pytest.approx(ref, rel=1e-9)

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
