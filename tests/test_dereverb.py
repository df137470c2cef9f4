"""Late-reverberation suppressor: PSD model, gain rule, and its invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonolink.core import AudioBuffer, StftConfig, stft
from sonolink.dereverb import (
    FALLBACK_RT60,
    DereverbConfig,
    ReverbModel,
    decay_constant,
    dereverberate,
    reverberant_psd,
    spectral_gain,
)
from sonolink.errors import InvalidArgumentError
from sonolink.rt60 import estimate_rt60

SMALL = StftConfig(window_length=256, hop=16)


def _decaying_noise(n, seed, rate=8000, rt60=0.4):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    x = rng.standard_normal(n) * np.exp(-decay_constant(rt60) * t)
    x[:40] *= np.linspace(0.0, 1.0, 40)
    return AudioBuffer(x, rate)


def _scaled(buf, factor):
    return AudioBuffer(buf.samples * factor, buf.sample_rate)


def _gain(buf, cfg, rt60):
    """The suppressor's gain grid for ``buf``, from its own two stages."""
    grid = stft(buf, cfg.stft)
    power = grid.power()
    period = grid.config.frame_period(grid.sample_rate)
    return spectral_gain(power, reverberant_psd(power, ReverbModel(rt60), cfg, period), cfg).gain


# ---------------------------------------------------------------------------
# decay model
# ---------------------------------------------------------------------------


def test_decay_constant_values():
    assert decay_constant(1.0) == pytest.approx(3.0 * math.log(10.0), rel=1e-15)
    assert decay_constant(0.5) == pytest.approx(13.815510557964274, rel=1e-12)
    # sixty dB in one reverberation time, by definition
    assert math.exp(-2.0 * decay_constant(2.0) * 2.0) == pytest.approx(1e-6, rel=1e-9)


def test_decay_constant_validation():
    with pytest.raises(InvalidArgumentError):
        decay_constant(0.0)
    with pytest.raises(InvalidArgumentError):
        decay_constant(-1.0)


@pytest.mark.parametrize("rt60", [math.nan, math.inf, "1", True])
def test_non_finite_rt60_is_rejected(rt60):
    with pytest.raises(InvalidArgumentError, match="rt60"):
        decay_constant(rt60)
    with pytest.raises(InvalidArgumentError, match="rt60"):
        ReverbModel(rt60=rt60)
    with pytest.raises(InvalidArgumentError, match="rt60"):
        dereverberate(_decaying_noise(3000, seed=3), DereverbConfig(stft=SMALL), rt60=rt60)


def test_reverb_model():
    model = ReverbModel(rt60=1.0)
    assert model.delta == pytest.approx(6.907755278982137)


def test_suppressor_tuning_is_fixed():
    assert [f.name for f in dataclasses.fields(DereverbConfig)] == ["stft"]
    assert not hasattr(DereverbConfig, "__post_init__")
    cfg = DereverbConfig(stft=SMALL)
    assert (cfg.late_delay, cfg.snr_smoothing, cfg.gain_floor, cfg.snr_ceiling) == (
        0.080, 0.9, 0.1, 30.0
    )
    with pytest.raises(TypeError):
        DereverbConfig(gain_floor=0.5)


def test_delay_frames():
    cfg = DereverbConfig()
    assert cfg.delay_frames(128 / 44100) == 28
    assert cfg.delay_frames(10.0) == 1  # never below one frame


# ---------------------------------------------------------------------------
# reverberant PSD
# ---------------------------------------------------------------------------


def test_psd_constant_power_oracle():
    # constant power: the moving average is a no-op and every delayed frame
    # is scaled by exp(-2 * delta * delay) = 0.331131... at rt60 = 1 s
    cfg = DereverbConfig()
    model = ReverbModel(1.0)
    period = 128 / 44100
    shift = cfg.delay_frames(period)
    power = np.full((4, 60), 2.5)
    out = reverberant_psd(power, model, cfg, period)
    assert np.allclose(out[:, :shift], 0.0, atol=0.0)
    assert np.allclose(out[:, shift:], 2.5 * 0.331131121482591, rtol=1e-12)


def test_psd_delay_shifts_content():
    cfg = DereverbConfig()
    model = ReverbModel(0.5)
    period = 0.02  # 4-frame delay
    power = np.zeros((1, 20))
    power[0, 5] = 9.0
    out = reverberant_psd(power, model, cfg, period)
    # the 3-frame average smears the impulse over frames 4..6, then the
    # 4-frame prediction delay lands it on frames 8..10
    assert np.nonzero(out[0])[0].tolist() == [8, 9, 10]


@st.composite
def loud_next_to_quiet(draw):
    """Power grids whose frames of 1e10 and more sit beside frames near 1e-20."""
    n_bands = draw(st.integers(1, 4))
    n_frames = draw(st.integers(2, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_bands, n_frames)
    loud = 1e10 * 10.0 ** rng.uniform(0.0, 6.0, shape)
    quiet = 1e-20 * 10.0 ** rng.uniform(-2.0, 2.0, shape)
    power = np.where(rng.random(shape) < draw(st.sampled_from([0.1, 0.3, 0.6])), loud, quiet)
    power[rng.random(shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    shift = draw(st.integers(1, n_frames + 1))
    return power, 0.080 / shift


@settings(max_examples=100, deadline=None, derandomize=True)
@given(loud_next_to_quiet(), st.sampled_from([0.3, 1.2]))
def test_psd_never_cancels_after_a_loud_frame(case, rt60):
    # a running 3-frame sum would lose the quiet frames to rounding once a
    # loud frame left its window, and read zero or below
    power, period = case
    cfg = DereverbConfig()
    out = reverberant_psd(power, ReverbModel(rt60), cfg, period)
    assert np.all(out >= 0.0)
    shift = cfg.delay_frames(period)
    frames = np.arange(max(power.shape[1] - shift, 0))
    last = power.shape[1] - 1
    window_power = (power[:, np.maximum(frames - 1, 0)] + power[:, frames]
                    + power[:, np.minimum(frames + 1, last)])
    held = out[:, shift:][window_power > 0.0]
    assert np.all(held > 0.0)


def test_psd_validation():
    cfg = DereverbConfig()
    with pytest.raises(InvalidArgumentError):
        reverberant_psd(np.zeros(5), ReverbModel(1.0), cfg, 0.01)
    with pytest.raises(InvalidArgumentError):
        reverberant_psd(np.zeros((2, 5)), ReverbModel(1.0), cfg, 0.0)


# ---------------------------------------------------------------------------
# gain rule
# ---------------------------------------------------------------------------


def test_gain_worked_example():
    # snr_post = 4 everywhere: prio = 3 and G = 1 - 1/sqrt(4) = 0.5 at every
    # frame (the recursion's fixed point equals its initialization)
    power = np.full((2, 30), 4.0)
    gamma = np.ones((2, 30))
    grid = spectral_gain(power, gamma, DereverbConfig())
    assert np.allclose(grid.gain, 0.5, rtol=1e-12)


def test_zero_reverberant_estimate_passes_through():
    power = np.full((1, 10), 5.0)
    gamma = np.zeros((1, 10))
    grid = spectral_gain(power, gamma, DereverbConfig())
    assert np.all(grid.gain == 1.0)


def test_gain_floor_reached():
    # observed power far below the reverberant estimate pushes G to the floor
    power = np.full((1, 40), 1e-6)
    gamma = np.ones((1, 40))
    grid = spectral_gain(power, gamma, DereverbConfig())
    assert np.all(grid.gain[:, :] >= 0.1)
    assert np.all(grid.gain[0, 1:] == 0.1)


def test_snr_ceiling_bounds_onset_spikes():
    # a near-zero reverberant estimate would otherwise produce an a-priori
    # SNR of ~1e30 and hold the gain open for hundreds of frames
    cfg = DereverbConfig()
    power = np.ones((1, 50))
    gamma = np.full((1, 50), 1e-30)
    grid = spectral_gain(power, gamma, cfg)
    # a-priori SNR <= ceiling, so G <= 1 - 1/sqrt(1 + ceiling)
    assert np.all(grid.gain <= 1.0 - 1.0 / math.sqrt(1.0 + cfg.snr_ceiling) + 1e-12)
    assert grid.gain[0, 0] == pytest.approx(1.0 - 1.0 / math.sqrt(31.0), rel=1e-12)


def test_gain_bounds_property():
    """lambda <= G <= 1 on randomized grids (120 cases)."""
    cfg = DereverbConfig()
    for seed in range(120):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 12)), int(rng.integers(1, 60)))
        power = rng.random(shape) * 10.0 ** rng.integers(-12, 6)
        gamma = rng.random(shape) * 10.0 ** rng.integers(-12, 6)
        gamma[rng.random(shape) < 0.2] = 0.0
        grid = spectral_gain(power, gamma, cfg)
        assert np.all(grid.gain >= cfg.gain_floor)
        assert np.all(grid.gain <= 1.0)


def test_gain_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        spectral_gain(np.ones((2, 3)), np.ones((3, 2)), DereverbConfig())


# ---------------------------------------------------------------------------
# full operation
# ---------------------------------------------------------------------------


class TestDereverberate:
    def test_output_length_and_rate(self):
        buf = _decaying_noise(5000, seed=0)
        out, diag = dereverberate(buf, DereverbConfig(stft=SMALL), rt60=0.4)
        assert len(out) == len(buf)
        assert out.sample_rate == buf.sample_rate
        assert 0.1 <= diag.mean_gain <= 1.0

    def test_given_rt60_flags(self):
        buf = _decaying_noise(4000, seed=1)
        _, diag = dereverberate(buf, DereverbConfig(stft=SMALL), rt60=0.7)
        assert diag.rt60 == 0.7
        assert not diag.rt60_estimated and not diag.rt60_fallback

    def test_blind_estimation_flag(self):
        buf = _decaying_noise(9600, seed=2)
        _, diag = dereverberate(buf, DereverbConfig(stft=StftConfig(512, 32)))
        assert diag.rt60_estimated and not diag.rt60_fallback
        assert 0.2 <= diag.rt60 <= 0.8

    @pytest.mark.parametrize("cfg", [DereverbConfig(), DereverbConfig(stft=StftConfig(512, 32))])
    def test_blind_rt60_is_estimate_rt60_bit_exact(self, cfg):
        # the suppressor estimates from the grid it already holds; the figure
        # must be exactly what estimate_rt60 reports for the same recording
        buf = _decaying_noise(9600, seed=2)
        _, diag = dereverberate(buf, cfg)
        assert diag.rt60_estimated
        assert diag.rt60 == estimate_rt60(buf, cfg.stft).rt60

    @pytest.mark.parametrize("rt60", [None, 0.4])
    def test_spectrogram_input_is_bit_exact(self, rt60):
        buf = _decaying_noise(9600, seed=2)
        dcfg = DereverbConfig(stft=StftConfig(512, 32))
        grid = stft(buf, dcfg.stft)
        before = grid.bins.tobytes()
        from_grid, grid_diag = dereverberate(grid, dcfg, rt60=rt60)
        # the suppressor shapes a copy: callers reuse their grid afterwards
        assert grid.bins.tobytes() == before
        from_buf, buf_diag = dereverberate(buf, dcfg, rt60=rt60)
        np.testing.assert_array_equal(from_grid.samples, from_buf.samples)
        assert from_grid.sample_rate == from_buf.sample_rate
        assert grid_diag.rt60 == buf_diag.rt60
        assert grid_diag.rt60_estimated == buf_diag.rt60_estimated
        assert grid_diag.mean_gain == buf_diag.mean_gain

    def test_diagnostics_hold_no_grid(self):
        buf = _decaying_noise(3000, seed=3)
        _, diag = dereverberate(buf, DereverbConfig(stft=SMALL), rt60=0.4)
        assert dataclasses.asdict(diag) == {
            "rt60": 0.4,
            "rt60_estimated": False,
            "rt60_fallback": False,
            "mean_gain": diag.mean_gain,
        }
        assert isinstance(diag.mean_gain, float)

    def test_spectrogram_config_mismatch(self):
        grid = stft(_decaying_noise(4000, seed=1), StftConfig(512, 32))
        with pytest.raises(InvalidArgumentError, match="does not match"):
            dereverberate(grid, DereverbConfig(stft=SMALL), rt60=0.4)

    def test_fallback_on_undecidable_input(self):
        x = np.zeros(8000)
        x[1500] = 1.0
        _, diag = dereverberate(AudioBuffer(x, 44100))
        assert diag.rt60_fallback and not diag.rt60_estimated
        assert diag.rt60 == FALLBACK_RT60

    def test_invalid_rt60(self):
        with pytest.raises(InvalidArgumentError):
            dereverberate(_decaying_noise(3000, seed=3), DereverbConfig(stft=SMALL), rt60=-1.0)

    def test_magnitude_contraction(self):
        """Per-bin STFT magnitude never grows (110 randomized cases)."""
        cfg = DereverbConfig(stft=SMALL)
        for seed in range(110):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(600, 2500))
            buf = AudioBuffer(rng.standard_normal(n), 8000)
            before = np.abs(stft(buf, SMALL).bins)
            after = before * _gain(buf, cfg, rt60=0.3 + rng.random())
            assert np.all(after <= before + 1e-15)

    def test_scale_equivariance_bit_exact(self):
        """Power-of-two input scaling rescales the output with no rounding."""
        cfg = DereverbConfig(stft=SMALL)
        for seed in range(30):
            buf = _decaying_noise(int(1000 + 90 * seed), seed)
            ref, _ = dereverberate(buf, cfg, rt60=0.4)
            scaled, _ = dereverberate(_scaled(buf, 2.0 ** (seed - 15)), cfg, rt60=0.4)
            assert np.array_equal(scaled.samples, ref.samples * 2.0 ** (seed - 15))

    def test_scale_equivariance_arbitrary_factor(self):
        cfg = DereverbConfig(stft=SMALL)
        buf = _decaying_noise(3000, seed=11)
        ref, _ = dereverberate(buf, cfg, rt60=0.5)
        out, _ = dereverberate(_scaled(buf, 3.7), cfg, rt60=0.5)
        assert np.max(np.abs(out.samples - 3.7 * ref.samples)) < 1e-9 * np.max(
            np.abs(ref.samples)
        )

    def test_monotone_suppression_in_rt60(self):
        # longer reverberation -> larger late-PSD estimate -> smaller gains
        cfg = DereverbConfig(stft=SMALL)
        buf = _decaying_noise(4000, seed=6)
        _, short = dereverberate(buf, cfg, rt60=0.3)
        _, long = dereverberate(buf, cfg, rt60=1.5)
        assert np.all(_gain(buf, cfg, 1.5) <= _gain(buf, cfg, 0.3) + 1e-12)
        assert long.mean_gain < short.mean_gain

    def test_unmodified_phase(self):
        # gains are real and positive, so bin phases survive exactly
        buf = _decaying_noise(3000, seed=7)
        spec = stft(buf, SMALL)
        shaped = spec.bins * _gain(buf, DereverbConfig(stft=SMALL), rt60=0.5)
        mask = np.abs(spec.bins) > 1e-12
        assert np.allclose(
            np.angle(shaped[mask]), np.angle(spec.bins[mask]), atol=1e-12
        )
