"""Tests for the sample/STFT primitives: windows, COLA, round trips, and the
FFT convolution that ``apply_channel`` runs for a room given as samples."""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonolink.core import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    _fast_length,
    _make_window,
    default_stft_config,
    istft,
    stft,
)
from sonolink.errors import InvalidArgumentError
from sonolink.modem import PROFILES, Packet, encode_packet
from sonolink.simulate import RirSpec, synth_rir
from test_workspace import _convolve


# ---------------------------------------------------------------------------
# AudioBuffer
# ---------------------------------------------------------------------------


class TestAudioBuffer:
    def test_basic(self):
        buf = AudioBuffer([0.0, 0.5, -0.5], 44100)
        assert len(buf) == 3
        assert buf.samples.dtype == np.float64
        assert buf.duration == pytest.approx(3 / 44100)

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


# AudioBuffer, Spectrogram and default_stft_config state one sample-rate rule
# (BenchConfig too)
def _with_rate(kind, rate):
    if kind == "AudioBuffer":
        return AudioBuffer([0.0], rate)
    if kind == "default_stft_config":
        return default_stft_config(rate)
    return Spectrogram(np.zeros((257, 1)), StftConfig(512, 16), rate, 512)


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # ±max float, subnormals, -0.0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(FINITE, max_size=40), st.data())
def test_audio_buffer_refuses_any_non_finite_sample(values, data):
    AudioBuffer(np.array(values, dtype=np.float64), 8000)  # finite arrays construct
    index = data.draw(st.integers(0, len(values)))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    samples = np.insert(np.array(values, dtype=np.float64), index, bad)
    with pytest.raises(InvalidArgumentError, match="^AudioBuffer samples must be finite$"):
        AudioBuffer(samples, 8000)


@pytest.mark.parametrize("extreme", [sys.float_info.max, -sys.float_info.max, 5e-324,
                                     -5e-324, sys.float_info.min, -0.0])
def test_audio_buffer_takes_extreme_finite_samples(extreme):
    samples = np.full(5, extreme)
    samples[2] = -extreme
    assert AudioBuffer(samples, 8000).samples is samples


def test_audio_buffer_checks_finiteness_without_a_sample_sized_allocation():
    samples = np.random.default_rng(1).standard_normal(44100)  # 1 s, 353 KB
    AudioBuffer(samples, 44100)
    tracemalloc.start()
    try:
        AudioBuffer(samples, 44100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # min and max each take about 1 KB whatever the length, the object a few
    # hundred bytes; a one-byte-per-sample mask would be 44100
    assert peak < 2048


@pytest.mark.parametrize("kind", ["AudioBuffer", "Spectrogram", "default_stft_config"])
@pytest.mark.parametrize("rate", [True, False, 0, -1, 44100.0, "44100", None])
def test_sample_rate_must_be_a_positive_integer(kind, rate):
    with pytest.raises(InvalidArgumentError, match="sample_rate must be a positive integer"):
        _with_rate(kind, rate)


@pytest.mark.parametrize("kind", ["AudioBuffer", "Spectrogram"])
def test_numpy_integer_sample_rate_is_stored_as_int(kind):
    made = _with_rate(kind, np.int64(44100))
    assert made.sample_rate == 44100 and type(made.sample_rate) is int


# ---------------------------------------------------------------------------
# Window + COLA constants
# ---------------------------------------------------------------------------


class TestWindow:
    def test_length_four_oracle(self):
        assert np.allclose(_make_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_length_two_oracle(self):
        assert np.allclose(_make_window(2), [0.0, 1.0], atol=1e-15)

    def test_starts_at_zero(self):
        assert _make_window(64)[0] == 0.0

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            _make_window(1)

    @pytest.mark.parametrize("length,hop", [(16, 2), (16, 4), (64, 8), (2048, 128)])
    def test_ola_constant(self, length, hop):
        # shifted copies of a periodic Hann window sum to length/(2*hop)
        w = _make_window(length)
        acc = np.zeros(6 * length)
        for start in range(0, acc.size - length + 1, hop):
            acc[start:start + length] += w
        interior = acc[length:-length]
        assert np.allclose(interior, length / (2 * hop), atol=1e-12)

    @pytest.mark.parametrize("length,hop", [(16, 2), (2048, 128)])
    def test_squared_ola_constant(self, length, hop):
        # sum of w^2 shifts = 0.375 * length / hop (so 6.0 for the default config)
        w = _make_window(length) ** 2
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
            Spectrogram(bins=np.zeros((10, 4)), config=StftConfig(512, 32), sample_rate=8000,
                        num_samples=608)

    # 32 frames of a 512/16 grid span (32 - 1) * 16 + 512 = 1008 samples
    @pytest.mark.parametrize("num_samples", [-5, -1, 1009, 10**6])
    def test_num_samples_outside_the_extent_rejected(self, num_samples):
        with pytest.raises(InvalidArgumentError, match=r"num_samples must be in \[0, 1008\]"):
            Spectrogram(np.zeros((257, 32)), StftConfig(512, 16), 8000, num_samples)

    @pytest.mark.parametrize("num_samples", [None, 1008.0, "1008"])
    def test_non_integer_num_samples_rejected(self, num_samples):
        with pytest.raises(InvalidArgumentError, match="num_samples must be an integer"):
            Spectrogram(np.zeros((257, 32)), StftConfig(512, 16), 8000, num_samples)

    @pytest.mark.parametrize("num_samples", [0, 1, 1000, 1008, np.int64(1007)])
    def test_istft_trims_to_num_samples(self, num_samples):
        rng = np.random.default_rng(1)
        bins = rng.standard_normal((257, 32)) + 1j * rng.standard_normal((257, 32))
        out = istft(Spectrogram(bins, StftConfig(512, 16), 8000, num_samples))
        full = istft(Spectrogram(bins, StftConfig(512, 16), 8000, 1008))
        assert len(out) == num_samples
        assert np.array_equal(out.samples, full.samples[:num_samples])

    def test_istft_of_a_complex64_grid_is_that_of_its_complex128_upcast(self):
        # numpy 2 runs irfft on complex64 input in single precision; istft
        # copies every block into complex128 first, as dereverberate does
        fs = 8000
        x = np.random.default_rng(12).standard_normal(30_000) * 0.1
        grid = stft(AudioBuffer(x, fs), default_stft_config(fs))
        single = grid.bins.astype(np.complex64)
        got, want = (istft(Spectrogram(bins, grid.config, fs, grid.num_samples))
                     for bins in (single, single.astype(np.complex128)))
        assert got.samples.tobytes() == want.samples.tobytes()


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
# convolution: a room given as samples, with no noise
# ---------------------------------------------------------------------------


class TestConvolve:
    def test_oracle_small(self):
        a = AudioBuffer([1.0, 2.0, 3.0], 8000)
        b = AudioBuffer([1.0, -1.0], 8000)
        out = _convolve(a, b)
        assert np.allclose(out.samples, np.convolve([1, 2, 3], [1, -1]), atol=1e-12)

    def test_length(self):
        a = AudioBuffer(np.ones(100), 8000)
        b = AudioBuffer(np.ones(30), 8000)
        assert len(_convolve(a, b)) == 129

    def test_commutative(self):
        rng = np.random.default_rng(0)
        a = AudioBuffer(rng.standard_normal(400), 8000)
        b = AudioBuffer(rng.standard_normal(50), 8000)
        ab = _convolve(a, b).samples
        ba = _convolve(b, a).samples
        assert np.max(np.abs(ab - ba)) / np.max(np.abs(ab)) < 1e-9

    def test_linear(self):
        rng = np.random.default_rng(1)
        a = AudioBuffer(rng.standard_normal(300), 8000)
        b = AudioBuffer(rng.standard_normal(300), 8000)
        ir = AudioBuffer(rng.standard_normal(40), 8000)
        lhs = _convolve(AudioBuffer(a.samples + b.samples, 8000), ir).samples
        rhs = _convolve(a, ir).samples + _convolve(b, ir).samples
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-9

    def test_rate_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="mismatch"):
            _convolve(AudioBuffer([1.0], 8000), AudioBuffer([1.0], 44100))

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            _convolve(AudioBuffer(np.zeros(0), 8000), AudioBuffer([1.0], 8000))

    # the acceptance sweep's rooms against short, default and longest packets
    @pytest.mark.parametrize("fs", [44100, 48000])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_bit_identical_to_fftconvolve(self, profile, fs):
        import scipy.signal

        for rt60 in (0.4, 0.8, 1.2, 1.6, 2.0):
            rir = synth_rir(RirSpec(rt60=rt60, direct_gain=0.7, seed=int(rt60 * 10)), fs)
            for n_bytes in (1, 4, 16):
                packet = encode_packet(Packet(bytes(range(n_bytes))), PROFILES[profile], fs)
                want = scipy.signal.fftconvolve(packet.samples, rir.samples)
                assert np.array_equal(_convolve(packet, rir).samples, want), (rt60, n_bytes)


def _smooth_5(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_length_is_the_next_5_smooth_number():
    for n in range(1, 5001):
        assert _fast_length(n) == next(m for m in itertools.count(n) if _smooth_5(m)), n


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=10**7))
def test_fast_length_matches_scipy(n):
    import scipy.fft

    assert _fast_length(n) == scipy.fft.next_fast_len(n, True)
