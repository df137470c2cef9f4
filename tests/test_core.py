"""Tests for the sample/STFT primitives: windows, COLA, round trips, convolve."""

import numpy as np
import pytest

from sonolink.core import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    convolve,
    default_stft_config,
    istft,
    make_window,
    stft,
)
from sonolink.errors import InvalidArgumentError


# ---------------------------------------------------------------------------
# AudioBuffer
# ---------------------------------------------------------------------------


class TestAudioBuffer:
    def test_basic(self):
        buf = AudioBuffer([0.0, 0.5, -0.5], 44100)
        assert len(buf) == 3
        assert buf.samples.dtype == np.float64
        assert buf.duration == pytest.approx(3 / 44100)

    def test_scaled(self):
        buf = AudioBuffer([1.0, -2.0], 8000)
        assert np.array_equal(buf.scaled(0.5).samples, [0.5, -1.0])

    def test_rejects_2d(self):
        with pytest.raises(InvalidArgumentError, match="one-dimensional"):
            AudioBuffer(np.zeros((4, 2)), 44100)

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError, match="finite"):
            AudioBuffer([0.0, np.nan], 44100)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidArgumentError):
            AudioBuffer([0.0], 0)
        with pytest.raises(InvalidArgumentError):
            AudioBuffer([0.0], 44100.0)


# ---------------------------------------------------------------------------
# Window + COLA constants
# ---------------------------------------------------------------------------


class TestWindow:
    def test_length_four_oracle(self):
        assert np.allclose(make_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_length_two_oracle(self):
        assert np.allclose(make_window(2), [0.0, 1.0], atol=1e-15)

    def test_starts_at_zero(self):
        assert make_window(64)[0] == 0.0

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            make_window(1)

    @pytest.mark.parametrize("length,hop", [(16, 2), (16, 4), (64, 8), (2048, 128)])
    def test_ola_constant(self, length, hop):
        # shifted copies of a periodic Hann window sum to length/(2*hop)
        w = make_window(length)
        acc = np.zeros(6 * length)
        for start in range(0, acc.size - length + 1, hop):
            acc[start:start + length] += w
        interior = acc[length:-length]
        assert np.allclose(interior, length / (2 * hop), atol=1e-12)

    @pytest.mark.parametrize("length,hop", [(16, 2), (2048, 128)])
    def test_squared_ola_constant(self, length, hop):
        # sum of w^2 shifts = 0.375 * length / hop (so 6.0 for the default config)
        w = make_window(length) ** 2
        acc = np.zeros(6 * length)
        for start in range(0, acc.size - length + 1, hop):
            acc[start:start + length] += w
        interior = acc[length:-length]
        assert np.allclose(interior, 0.375 * length / hop, atol=1e-12)


class TestStftConfig:
    def test_default_44100(self):
        cfg = default_stft_config(44100)
        assert (cfg.window_length, cfg.hop) == (2048, 128)

    def test_default_48000(self):
        cfg = default_stft_config(48000)
        assert (cfg.window_length, cfg.hop) == (2048, 128)

    def test_num_bins(self):
        assert StftConfig(512, 32).num_bins == 257

    def test_frame_period(self):
        assert StftConfig(2048, 128).frame_period(44100) == pytest.approx(128 / 44100)

    def test_odd_window_rejected(self):
        with pytest.raises(InvalidArgumentError):
            StftConfig(511, 32)

    def test_non_dividing_hop_rejected(self):
        with pytest.raises(InvalidArgumentError, match="divide"):
            StftConfig(512, 100)

    @pytest.mark.parametrize(
        "args, match", [((2048.0, 128.0), "window_length"), ((64, 8.0), "hop")]
    )
    def test_non_integer_fields_rejected(self, args, match):
        with pytest.raises(InvalidArgumentError, match=f"{match} must be an integer"):
            StftConfig(*args)


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------


class TestStft:
    def test_shapes(self):
        buf = AudioBuffer(np.random.default_rng(0).standard_normal(5000), 44100)
        cfg = StftConfig(2048, 128)
        spec = stft(buf, cfg)
        expected_frames = 1 + int(np.ceil((5000 - 2048) / 128))
        assert spec.num_bands == 1025
        assert spec.num_frames == expected_frames
        assert spec.num_samples == 5000

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError, match="shorter than one window"):
            stft(AudioBuffer(np.zeros(100), 44100), StftConfig(2048, 128))

    def test_sinusoid_energy_concentrates(self):
        # an exact-bin sinusoid leaks only into adjacent bins through the Hann lobe
        fs, win = 8000, 512
        cfg = StftConfig(win, 32)
        k = 40
        t = np.arange(8 * win) / fs
        buf = AudioBuffer(np.sin(2 * np.pi * (k * fs / win) * t), fs)
        spec = stft(buf, cfg)
        power = spec.power()
        frame = power[:, power.shape[1] // 2]
        assert int(np.argmax(frame)) == k
        assert frame[k - 1:k + 2].sum() / frame.sum() > 0.99

    def test_spectrogram_bin_count_checked(self):
        with pytest.raises(InvalidArgumentError, match="does not match"):
            Spectrogram(bins=np.zeros((10, 4)), config=StftConfig(512, 32), sample_rate=8000)


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


def _roundtrip_error(x: np.ndarray, cfg: StftConfig, fs: int = 44100) -> float:
    buf = AudioBuffer(x, fs)
    back = istft(stft(buf, cfg))
    assert len(back) == len(buf)
    # sample 0 sits under the window's zero and is not reconstructible
    num = np.sqrt(np.mean((back.samples[1:] - x[1:]) ** 2))
    den = np.sqrt(np.mean(x[1:] ** 2))
    return num / den


class TestRoundTrip:
    def test_identity_default_config(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(10000)
        assert _roundtrip_error(x, StftConfig(2048, 128)) < 1e-12

    def test_identity_many_lengths(self):
        # the COLA property suite: randomized lengths and hops, >= 100 cases
        rng = np.random.default_rng(7)
        cfgs = [StftConfig(2048, 128), StftConfig(512, 32), StftConfig(256, 64)]
        for case in range(120):
            cfg = cfgs[case % len(cfgs)]
            n = int(rng.integers(cfg.window_length, 4 * cfg.window_length))
            x = rng.standard_normal(n)
            assert _roundtrip_error(x, cfg) < 1e-6

    def test_identity_non_gaussian(self):
        # impulses and square-ish signals stress the overlap-add normalization
        rng = np.random.default_rng(3)
        x = np.sign(rng.standard_normal(6000)) * rng.random(6000)
        x[1234] = 50.0
        assert _roundtrip_error(x, StftConfig(512, 32)) < 1e-9

    def test_modified_magnitude_changes_signal(self):
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.standard_normal(4000), 44100)
        spec = stft(buf, StftConfig(512, 32))
        spec.bins *= 0.5
        halved = istft(spec)
        assert np.allclose(halved.samples[1:], 0.5 * buf.samples[1:], atol=1e-9)

    def test_parseval_ratio_stable_across_inputs(self):
        # energy gain of the analysis bank is a fixed property of the window,
        # not of the signal; edge frames keep this approximate
        rng = np.random.default_rng(11)
        cfg = StftConfig(512, 32)
        ratios = []
        for _ in range(10):
            x = np.zeros(8000)
            x[512:-512] = rng.standard_normal(8000 - 1024)
            spec = stft(AudioBuffer(x, 8000), cfg)
            ratios.append(np.sum(np.abs(spec.bins) ** 2) / np.sum(x**2))
        ratios = np.asarray(ratios)
        assert np.all(np.abs(ratios / ratios.mean() - 1.0) < 0.01)


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------


class TestConvolve:
    def test_oracle_small(self):
        a = AudioBuffer([1.0, 2.0, 3.0], 8000)
        b = AudioBuffer([1.0, -1.0], 8000)
        out = convolve(a, b)
        assert np.allclose(out.samples, np.convolve([1, 2, 3], [1, -1]), atol=1e-12)

    def test_length(self):
        a = AudioBuffer(np.ones(100), 8000)
        b = AudioBuffer(np.ones(30), 8000)
        assert len(convolve(a, b)) == 129

    def test_commutative(self):
        rng = np.random.default_rng(0)
        a = AudioBuffer(rng.standard_normal(400), 8000)
        b = AudioBuffer(rng.standard_normal(50), 8000)
        ab = convolve(a, b).samples
        ba = convolve(b, a).samples
        assert np.max(np.abs(ab - ba)) / np.max(np.abs(ab)) < 1e-9

    def test_linear(self):
        rng = np.random.default_rng(1)
        a = AudioBuffer(rng.standard_normal(300), 8000)
        b = AudioBuffer(rng.standard_normal(300), 8000)
        ir = AudioBuffer(rng.standard_normal(40), 8000)
        lhs = convolve(AudioBuffer(a.samples + b.samples, 8000), ir).samples
        rhs = convolve(a, ir).samples + convolve(b, ir).samples
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-9

    def test_rate_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="mismatch"):
            convolve(AudioBuffer([1.0], 8000), AudioBuffer([1.0], 44100))

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            convolve(AudioBuffer(np.zeros(0), 8000), AudioBuffer([1.0], 8000))
