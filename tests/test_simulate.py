"""Synthetic RIR generator, channel application, and corpus IO."""

import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

from sonolink.core import AudioBuffer
from sonolink.dereverb import decay_constant
from sonolink.errors import InvalidArgumentError
from sonolink.simulate import (
    ChannelSpec,
    CorpusEntry,
    RirSpec,
    apply_channel,
    load_rir_corpus,
    save_rir_corpus,
    synth_rir,
)

FS = 16000


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


class TestSpecs:
    def test_rt60_must_be_positive(self):
        with pytest.raises(InvalidArgumentError, match="rt60 must be positive"):
            RirSpec(rt60=0.0)
        with pytest.raises(InvalidArgumentError, match="rt60 must be positive"):
            RirSpec(rt60=np.inf)

    def test_length_floor(self):
        with pytest.raises(InvalidArgumentError, match="at least rt60/2"):
            RirSpec(rt60=1.0, length=0.4)
        assert RirSpec(rt60=1.0, length=0.5).effective_length == 0.5

    def test_effective_length_default(self):
        assert RirSpec(rt60=0.8).effective_length == pytest.approx(1.2)

    def test_direct_gain_positive(self):
        with pytest.raises(InvalidArgumentError, match="direct_gain"):
            RirSpec(rt60=1.0, direct_gain=0.0)

    def test_seeds_must_be_non_negative(self):
        with pytest.raises(InvalidArgumentError, match="seed must be non-negative"):
            RirSpec(rt60=1.0, seed=-1)
        with pytest.raises(InvalidArgumentError, match="noise_seed must be non-negative"):
            ChannelSpec(rir=RirSpec(rt60=0.5), noise_seed=-1)

    def test_channel_validation(self):
        with pytest.raises(InvalidArgumentError, match="snr_db"):
            ChannelSpec(rir=RirSpec(rt60=0.5), snr_db=np.inf)
        with pytest.raises(InvalidArgumentError, match="normalize"):
            ChannelSpec(rir=RirSpec(rt60=0.5), normalize=0.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": "1"}, "seed must be an integer"),
            ({"rt60": "1"}, "rt60 must be a number, got '1'"),
            ({"rt60": None}, "rt60 must be a number"),
            ({"length": "2"}, "length must be a number"),
            ({"direct_gain": "0.7"}, "direct_gain must be a number"),
            ({"rt60": True}, "rt60 must be a number, got True"),
            ({"seed": True}, "seed must be an integer, got True"),
        ],
    )
    def test_rir_spec_field_types(self, kwargs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            RirSpec(**{"rt60": 0.5, **kwargs})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"noise_seed": 1.5}, "noise_seed must be an integer, got 1.5"),
            ({"snr_db": "20"}, "snr_db must be a number, got '20'"),
            ({"normalize": "0.9"}, "normalize must be a number"),
            ({"rir": "room.wav"}, "rir must be an AudioBuffer or a RirSpec, got 'room.wav'"),
            ({"snr_db": True}, "snr_db must be a number, got True"),
        ],
    )
    def test_channel_spec_field_types(self, kwargs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            ChannelSpec(**{"rir": RirSpec(rt60=0.5), **kwargs})

    def test_numpy_scalars_accepted(self):
        spec = RirSpec(rt60=np.float64(0.5), length=np.float32(1.0), seed=np.int64(3))
        assert np.array_equal(synth_rir(spec, FS).samples, synth_rir(RirSpec(0.5, 1.0, seed=3), FS).samples)
        ChannelSpec(rir=spec, snr_db=np.float64(20.0), normalize=np.float32(0.5), noise_seed=np.uint32(1))


# ---------------------------------------------------------------------------
# impulse response synthesis
# ---------------------------------------------------------------------------


def _synth_rir_reference(spec, sample_rate):
    """synth_rir as one expression with a fresh array for each step."""
    n = round(spec.effective_length * sample_rate)
    t = np.arange(1, n, dtype=np.float64) / sample_rate
    tail = np.random.default_rng(spec.seed).standard_normal(n - 1) * np.exp(-decay_constant(spec.rt60) * t)
    tail *= np.sqrt(spec.rt60 / float(np.dot(tail, tail)))
    return np.concatenate([[spec.direct_gain], tail])


def _empty_at(offset):
    """np.empty whose arrays start ``offset`` float64s past a 64-byte line."""
    empty = np.empty

    def at(shape, dtype=np.float64):
        buf = empty(np.prod(shape) + 8, dtype)
        skip = (offset - buf.ctypes.data // buf.itemsize) % 8
        return buf[skip:skip + np.prod(shape)].reshape(shape)
    return at


class TestSynthRir:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(0.05, 2.0), st.sampled_from([None, 0.5, 1.0]), st.floats(0.1, 1.0),
           st.integers(0, 2**32 - 1), st.sampled_from([37, 8000, 22050, 44100, 48000]),
           st.integers(0, 7))
    def test_tail_is_built_in_place_with_the_same_bytes(self, rt60, length, gain, seed, rate,
                                                        offset):
        # the tail is drawn into the result at one sample past its start, and
        # np.dot reads it there: its bytes must not depend on where in a cache
        # line the result starts, short lengths, long ones and odd rates alike
        length = None if length is None else max(length, rt60 / 2.0)
        spec = RirSpec(rt60=rt60, length=length, direct_gain=gain, seed=seed)
        with mock.patch.object(np, "empty", _empty_at(offset)):
            got = synth_rir(spec, rate).samples
        assert got.ctypes.data // got.itemsize % 8 == offset
        assert got.tobytes() == _synth_rir_reference(spec, rate).tobytes()

    def test_deterministic(self):
        spec = RirSpec(rt60=0.6, seed=7)
        a = synth_rir(spec, FS)
        b = synth_rir(spec, FS)
        assert np.array_equal(a.samples, b.samples)
        c = synth_rir(RirSpec(rt60=0.6, seed=8), FS)
        assert not np.array_equal(a.samples, c.samples)

    def test_direct_path_and_length(self):
        rir = synth_rir(RirSpec(rt60=0.8, direct_gain=0.7), FS)
        assert rir.samples[0] == 0.7
        assert len(rir) == round(1.2 * FS)
        assert rir.sample_rate == FS

    def test_tail_energy_equals_rt60(self):
        for rt in (0.3, 1.0, 2.5):
            rir = synth_rir(RirSpec(rt60=rt, seed=1), FS)
            tail_energy = float(np.dot(rir.samples[1:], rir.samples[1:]))
            assert tail_energy == pytest.approx(rt, rel=1e-12)

    def test_direct_to_reverberant_ratio(self):
        # direct energy g^2 over tail energy rt60: the one knob for distance
        rir = synth_rir(RirSpec(rt60=2.0, direct_gain=0.5, seed=3), FS)
        drr = rir.samples[0] ** 2 / np.dot(rir.samples[1:], rir.samples[1:])
        assert drr == pytest.approx(0.25 / 2.0, rel=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(InvalidArgumentError, match="under 2 samples"):
            synth_rir(RirSpec(rt60=1e-4, length=1e-4), 8000)

    @pytest.mark.parametrize("rt", [0.2, 0.5, 1.0, 2.0, 4.0])
    def test_schroeder_back_integration_recovers_rt60(self, rt):
        # independent check: backward-integrate the tail energy, fit the
        # -5..-25 dB stretch of the decay curve, convert slope to RT60
        rir = synth_rir(RirSpec(rt60=rt, seed=11), FS)
        tail = rir.samples[1:]
        edc = np.cumsum(tail[::-1] ** 2)[::-1]
        edc_db = 10.0 * np.log10(edc / edc[0])
        sel = (edc_db <= -5.0) & (edc_db >= -25.0)
        t = np.arange(tail.size)[sel] / FS
        slope = np.polyfit(t, edc_db[sel], 1)[0]
        assert -60.0 / slope == pytest.approx(rt, rel=0.05)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------


def _tone(n=4000, fs=FS):
    t = np.arange(n) / fs
    return AudioBuffer(0.3 * np.sin(2 * np.pi * 440 * t), fs)


class TestApplyChannel:
    def test_length_is_full_convolution(self):
        sig = _tone()
        rir = synth_rir(RirSpec(rt60=0.4), FS)
        out = apply_channel(sig, ChannelSpec(rir=rir))
        assert len(out) == len(sig) + len(rir) - 1

    def test_rir_spec_accepted_directly(self):
        sig = _tone()
        out = apply_channel(sig, ChannelSpec(rir=RirSpec(rt60=0.4, seed=2)))
        via_buffer = apply_channel(
            sig, ChannelSpec(rir=synth_rir(RirSpec(rt60=0.4, seed=2), FS))
        )
        assert np.array_equal(out.samples, via_buffer.samples)

    def test_deterministic_noise(self):
        sig = _tone()
        chan = ChannelSpec(rir=RirSpec(rt60=0.4), snr_db=10.0, noise_seed=5)
        a = apply_channel(sig, chan)
        b = apply_channel(sig, chan)
        assert np.array_equal(a.samples, b.samples)

    def test_measured_snr_is_exact(self):
        sig = _tone()
        rir = synth_rir(RirSpec(rt60=0.4), FS)
        clean = apply_channel(sig, ChannelSpec(rir=rir))
        for snr in (-5.0, 0.0, 12.0, 40.0):
            noisy = apply_channel(sig, ChannelSpec(rir=rir, snr_db=snr))
            noise = noisy.samples - clean.samples
            target = np.mean(clean.samples**2) * 10.0 ** (-snr / 10.0)
            assert np.mean(noise**2) == pytest.approx(target, rel=1e-12)

    def test_normalize_hits_peak(self):
        out = apply_channel(
            _tone(), ChannelSpec(rir=RirSpec(rt60=0.4), normalize=0.25)
        )
        assert np.max(np.abs(out.samples)) == pytest.approx(0.25, rel=1e-12)

    def test_silent_signal_errors(self):
        silence = AudioBuffer(np.zeros(1000), FS)
        rir = AudioBuffer(np.zeros(100), FS)
        with pytest.raises(InvalidArgumentError, match="SNR against a silent"):
            apply_channel(silence, ChannelSpec(rir=rir, snr_db=20.0))
        with pytest.raises(InvalidArgumentError, match="peak-normalize a silent"):
            apply_channel(silence, ChannelSpec(rir=rir, normalize=1.0))

    # noise at -3000 dB below a unit signal is about 1e150: finite; below a
    # loud one, at -4000 dB below either, or below a signal whose own power
    # overflows, its power is not
    @pytest.mark.parametrize("snr_db, amplitude, finite", [
        (-3000.0, 1.0, True), (-3000.0, 1e100, False),
        (-4000.0, 1.0, False), (-4000.0, 1e100, False),
        (-sys.float_info.max, 1.0, False), (-sys.float_info.max, 1e100, False),
        (10.0, 1e200, False),
    ])
    def test_an_extreme_snr_gives_finite_samples_or_a_typed_error(self, snr_db, amplitude, finite):
        sig = AudioBuffer(amplitude * _tone().samples, FS)
        chan = ChannelSpec(rir=RirSpec(rt60=0.4), snr_db=snr_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            if finite:
                assert np.isfinite(apply_channel(sig, chan).samples).all()
            else:  # not OverflowError
                with pytest.raises(InvalidArgumentError, match=f"^{re.escape(f'snr_db {snr_db} ')}"):
                    apply_channel(sig, chan)


# ---------------------------------------------------------------------------
# corpus IO
# ---------------------------------------------------------------------------


def _entry(name, seed, rt60=None):
    rng = np.random.default_rng(seed)
    return CorpusEntry(
        name=name, audio=AudioBuffer(rng.standard_normal(800) * 0.1, FS), rt60=rt60
    )


class TestCorpus:
    def test_roundtrip_with_labels(self, tmp_path):
        entries = [
            _entry("hall", 0, rt60=1.2),
            _entry("booth.wav", 1, rt60=0.3),
            _entry("mystery", 2),  # unlabeled on purpose
        ]
        save_rir_corpus(entries, tmp_path)
        assert (tmp_path / "labels.csv").is_file()
        loaded = load_rir_corpus(tmp_path)
        assert [e.name for e in loaded] == ["booth.wav", "hall.wav", "mystery.wav"]
        assert [e.rt60 for e in loaded] == [0.3, 1.2, None]
        by_name = {e.name: e for e in loaded}
        np.testing.assert_allclose(
            by_name["hall.wav"].audio.samples, entries[0].audio.samples, atol=1e-7
        )
        assert all(e.audio.sample_rate == FS for e in loaded)

    def test_rate_mismatch_skipped(self, tmp_path):
        save_rir_corpus([_entry("good", 0)], tmp_path)
        scipy.io.wavfile.write(
            tmp_path / "slow.wav", 8000, np.zeros(100, dtype=np.float32)
        )
        with pytest.warns(UserWarning, match="8000 Hz != expected 16000"):
            loaded = load_rir_corpus(tmp_path, sample_rate=FS)
        assert [e.name for e in loaded] == ["good.wav"]

    def test_unreadable_file_skipped(self, tmp_path):
        save_rir_corpus([_entry("good", 0)], tmp_path)
        (tmp_path / "broken.wav").write_bytes(b"not really audio")
        with pytest.warns(UserWarning, match="skipping broken.wav"):
            loaded = load_rir_corpus(tmp_path)
        assert [e.name for e in loaded] == ["good.wav"]

    def test_reader_bug_is_not_a_skipped_file(self, tmp_path):
        # wav_read reports bad files as FormatError; anything else is a bug
        # and must surface, not turn into a "skipping" warning
        save_rir_corpus([_entry("good", 0)], tmp_path)
        with mock.patch("sonolink.simulate.wav_read", side_effect=ValueError("bug")):
            with pytest.raises(ValueError, match="bug"):
                load_rir_corpus(tmp_path)

    def test_bad_labels_header_ignored(self, tmp_path):
        save_rir_corpus([_entry("good", 0, rt60=0.5)], tmp_path)
        (tmp_path / "labels.csv").write_text("filename,seconds\ngood.wav,0.5\n")
        with pytest.warns(UserWarning, match="expected header 'file,rt60'"):
            loaded = load_rir_corpus(tmp_path)
        assert loaded[0].rt60 is None

    def test_bad_label_value_skipped(self, tmp_path):
        save_rir_corpus([_entry("good", 0)], tmp_path)
        # unparseable, and parseable but no reverberation time a room can have
        for value in ("fast", "-1", "0", "nan", "inf"):
            (tmp_path / "labels.csv").write_text(f"file,rt60\ngood.wav,{value}\n")
            with pytest.warns(UserWarning, match="bad rt60"):
                loaded = load_rir_corpus(tmp_path)
            assert loaded[0].rt60 is None, value

    def test_labels_may_omit_extension(self, tmp_path):
        save_rir_corpus([_entry("good", 0)], tmp_path)
        (tmp_path / "labels.csv").write_text("file,rt60\ngood,0.75\n")
        loaded = load_rir_corpus(tmp_path)
        assert loaded[0].rt60 == 0.75

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="not a directory"):
            load_rir_corpus(tmp_path / "missing")
