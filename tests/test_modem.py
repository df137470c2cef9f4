"""FSK modem: packing, packet anatomy, round trips, robustness, confidences."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonolink.core import AudioBuffer
from sonolink.errors import InvalidArgumentError
from sonolink.modem import (
    AUDIBLE,
    ULTRASONIC,
    DecodeResult,
    Packet,
    ProtocolProfile,
    decode_packet,
    demodulate_symbols,
    detect_preamble,
    encode_packet,
    pack_symbols,
    packet_symbols,
    profile_by_name,
    tone_frequencies,
    unpack_payload,
)
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel

# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------


def test_pack_symbols_oracles():
    assert pack_symbols(b"\xff") == [31, 28]
    assert pack_symbols(b"\x00") == [0, 0]
    assert pack_symbols(b"\x00\x01") == [0, 0, 0, 16]
    assert pack_symbols(b"") == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(min_size=0, max_size=16))
def test_pack_unpack_roundtrip(payload):
    symbols = pack_symbols(payload)
    assert len(symbols) == -(-8 * len(payload) // 5)
    assert all(0 <= s < 32 for s in symbols)
    assert unpack_payload(symbols, len(payload)) == payload


def test_unpack_needs_enough_symbols():
    with pytest.raises(InvalidArgumentError):
        unpack_payload([1, 2], 2)  # 10 bits cannot hold 16


# ---------------------------------------------------------------------------
# profiles and packet anatomy
# ---------------------------------------------------------------------------


def test_profiles():
    assert profile_by_name("audible") is AUDIBLE
    assert profile_by_name("ULTRASONIC") is ULTRASONIC
    with pytest.raises(InvalidArgumentError, match="unknown profile"):
        profile_by_name("synthwave")
    assert AUDIBLE.max_payload_bytes == 16
    assert AUDIBLE.symbol_samples(44100) == 3528
    assert AUDIBLE.symbol_samples(48000) == 3840


def test_wire_format_is_fixed():
    # a profile chooses only its band; the rest of the format is shared
    assert [f.name for f in dataclasses.fields(ProtocolProfile)] == ["name", "band_low", "band_high"]
    assert (AUDIBLE.tone_count, AUDIBLE.rs_parity, AUDIBLE.preamble) == (32, 8, (0, 31))
    assert ULTRASONIC.symbol_duration == AUDIBLE.symbol_duration == 0.080
    assert "symbol_confidences" not in {f.name for f in dataclasses.fields(DecodeResult)}


def test_tone_frequencies():
    f = tone_frequencies(AUDIBLE, 44100)
    assert f[0] == 1700.0 and f[-1] == 10500.0
    assert np.allclose(np.diff(f), (10500 - 1700) / 31)
    f = tone_frequencies(ULTRASONIC, 48000)
    assert f[0] == 18000.0 and f[-1] == 20000.0


def test_tone_frequencies_nyquist():
    with pytest.raises(InvalidArgumentError, match="Nyquist"):
        tone_frequencies(ULTRASONIC, 16000)


def test_profile_spacing_bound():
    # 32 tones crammed into 100 Hz cannot be separated by an 80 ms window
    with pytest.raises(InvalidArgumentError, match="spacing"):
        ProtocolProfile(name="narrow", band_low=1000.0, band_high=1100.0)


def test_packet_validation():
    with pytest.raises(InvalidArgumentError):
        Packet(b"")
    with pytest.raises(InvalidArgumentError):
        Packet(bytes(17))
    assert Packet(b"\x01").payload == b"\x01"


@pytest.mark.parametrize(
    "n_bytes,expected_body",
    [
        (1, 1 + 2 + 8),      # length + 2 data + one parity group
        (4, 1 + 7 + 8),
        (14, 1 + 23 + 8),    # largest single-codeword payload
        (15, 1 + 24 + 16),   # first split: two codewords, two parity groups
        (16, 1 + 26 + 16),
    ],
)
def test_packet_symbol_counts(n_bytes, expected_body):
    body = packet_symbols(Packet(bytes(range(1, n_bytes + 1))), AUDIBLE)
    assert len(body) == expected_body
    assert body[0] == n_bytes


def test_encode_packet_shape():
    buf = encode_packet(Packet(b"\xab"), AUDIBLE, 44100)
    assert buf.sample_rate == 44100
    assert len(buf) == (2 + 11) * 3528
    assert np.max(np.abs(buf.samples)) <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", [AUDIBLE, ULTRASONIC], ids=lambda p: p.name)
@pytest.mark.parametrize("n_bytes", [1, 2, 7, 14, 15, 16])
def test_roundtrip_44100(profile, n_bytes):
    payload = bytes((7 * i + 3) % 256 for i in range(n_bytes))
    buf = encode_packet(Packet(payload), profile, 44100)
    result = decode_packet(buf, profile)
    assert result.ok
    assert result.payload == payload
    assert result.failure is None
    assert result.preamble_offset == 0
    assert result.corrected_errors == 0


@pytest.mark.parametrize("profile", [AUDIBLE, ULTRASONIC], ids=lambda p: p.name)
@pytest.mark.parametrize("n_bytes", [1, 16])
def test_roundtrip_48000(profile, n_bytes):
    payload = bytes(range(100, 100 + n_bytes))
    buf = encode_packet(Packet(payload), profile, 48000)
    result = decode_packet(buf, profile)
    assert result.ok and result.payload == payload


def test_roundtrip_survives_scaling():
    payload = b"\x12\x34"
    buf = encode_packet(Packet(payload), AUDIBLE, 44100)
    for factor in (1e-4, 0.1, 2.0):
        result = decode_packet(buf.scaled(factor), AUDIBLE)
        assert result.ok and result.payload == payload


# ---------------------------------------------------------------------------
# preamble detection / alignment
# ---------------------------------------------------------------------------


def test_preamble_at_offset():
    payload = b"\xde\xad\xbe\xef"
    buf = encode_packet(Packet(payload), AUDIBLE, 44100)
    offset = 12345
    hop = AUDIBLE.symbol_samples(44100) // 8
    embedded = AudioBuffer(
        np.concatenate([np.zeros(offset), buf.samples, np.zeros(5000)]), 44100
    )
    candidates = detect_preamble(embedded, AUDIBLE)
    assert any(abs(c - offset) <= hop for c in candidates)
    result = decode_packet(embedded, AUDIBLE)
    assert result.ok and result.payload == payload
    assert abs(result.preamble_offset - offset) <= hop


def test_no_preamble_in_noise():
    noise = AudioBuffer(np.random.default_rng(0).standard_normal(40000) * 0.3, 44100)
    result = decode_packet(noise, AUDIBLE)
    assert not result.ok
    assert result.failure == "no-preamble"
    assert result.preamble_offset == -1


def test_no_preamble_in_silence():
    result = decode_packet(AudioBuffer(np.zeros(40000), 44100), AUDIBLE)
    assert result.failure == "no-preamble"


def test_truncated_packet_fails_cleanly():
    buf = encode_packet(Packet(b"\x42"), AUDIBLE, 44100)
    sym = AUDIBLE.symbol_samples(44100)
    cut = AudioBuffer(buf.samples[: int(2.5 * sym)], 44100)
    result = decode_packet(cut, AUDIBLE)
    assert not result.ok
    assert result.failure == "length-symbol-invalid"


# ---------------------------------------------------------------------------
# robustness at the symbol layer
# ---------------------------------------------------------------------------


def _overwrite_symbols(buf, profile, slots, tone):
    """Replace whole symbol windows with a different pure tone."""
    fs = buf.sample_rate
    sym = profile.symbol_samples(fs)
    freqs = tone_frequencies(profile, fs)
    x = buf.samples.copy()
    t = np.arange(sym) / fs
    for s in slots:
        x[s * sym:(s + 1) * sym] = profile.amplitude * np.sin(
            2 * np.pi * freqs[tone] * t
        )
    return AudioBuffer(x, fs)


def test_corrections_up_to_parity_capacity():
    """2e <= 8 holds end to end: four flipped symbols decode, five do not."""
    pkt = Packet(b"\xca\xfe\xba\xbe")
    buf = encode_packet(pkt, AUDIBLE, 44100)
    for k in range(1, 5):
        bad = _overwrite_symbols(buf, AUDIBLE, range(3, 3 + k), tone=9)
        result = decode_packet(bad, AUDIBLE)
        assert result.ok and result.payload == pkt.payload
        assert result.corrected_errors == k
        assert 2 * result.corrected_errors + result.erasures_used <= AUDIBLE.rs_parity
    bad = _overwrite_symbols(buf, AUDIBLE, range(3, 8), tone=9)
    result = decode_packet(bad, AUDIBLE)
    assert not result.ok
    assert result.failure == "fec-failure"


def test_ambiguous_symbols_become_erasures():
    # mixing a second tone at equal strength drops the confidence ratio below
    # the erasure threshold; erasures are cheaper than errors (f vs 2e)
    pkt = Packet(b"\xca\xfe\xba\xbe")
    buf = encode_packet(pkt, AUDIBLE, 44100)
    fs = buf.sample_rate
    sym = AUDIBLE.symbol_samples(fs)
    freqs = tone_frequencies(AUDIBLE, fs)
    x = buf.samples.copy()
    t = np.arange(sym) / fs
    for s in (3, 5, 7, 9, 11):
        seg = x[s * sym:(s + 1) * sym]
        x[s * sym:(s + 1) * sym] = 0.5 * seg + 0.25 * np.sin(
            2 * np.pi * freqs[17] * t
        )
    result = decode_packet(AudioBuffer(x, fs), AUDIBLE)
    assert result.ok and result.payload == pkt.payload
    assert result.erasures_used == 5
    assert 2 * result.corrected_errors + result.erasures_used <= AUDIBLE.rs_parity


# ---------------------------------------------------------------------------
# demodulation and confidences
# ---------------------------------------------------------------------------


def test_demodulate_validation():
    buf = encode_packet(Packet(b"\x01"), AUDIBLE, 44100)
    with pytest.raises(InvalidArgumentError):
        demodulate_symbols(buf, 0, 0, AUDIBLE)
    with pytest.raises(InvalidArgumentError, match="exceed"):
        demodulate_symbols(buf, 0, 1000, AUDIBLE)
    with pytest.raises(InvalidArgumentError):
        demodulate_symbols(buf, -5, 1, AUDIBLE)


def test_demodulate_reads_back_symbols():
    pkt = Packet(b"\x5a\xc3")
    expected = list(AUDIBLE.preamble) + packet_symbols(pkt, AUDIBLE)
    buf = encode_packet(pkt, AUDIBLE, 44100)
    symbols, confidences = demodulate_symbols(buf, 0, len(expected), AUDIBLE)
    assert symbols.tolist() == expected
    assert np.all(confidences > 1.5)


def test_noise_never_raises_mean_confidence():
    """Statistical monotonicity: 100 noisy trials, none more confident than clean."""
    pkt = Packet(b"\x5a\xc3\x99\x01")
    buf = encode_packet(pkt, AUDIBLE, 44100)
    count = 2 + len(packet_symbols(pkt, AUDIBLE))
    _, conf_clean = demodulate_symbols(buf, 0, count, AUDIBLE)
    clean_mean = conf_clean.mean()
    below = 0
    for trial in range(100):
        noise = np.random.default_rng(trial).standard_normal(len(buf)) * 0.05
        _, conf = demodulate_symbols(
            AudioBuffer(buf.samples + noise, 44100), 0, count, AUDIBLE
        )
        below += conf.mean() <= clean_mean
    assert below == 100


# ---------------------------------------------------------------------------
# pinned end-to-end decode results
# ---------------------------------------------------------------------------

# sha256 of the rows below: 61 correct, 15 wrong payloads, 15 fec-failure
# and 5 length-symbol-invalid out of 96 packets.
DECODE_ROWS_SHA256 = "9c81b63542666057fa2b86e1bae9afd50e5eb6692e0541cc6bde5e8f31c8cded"


def test_decode_results_are_pinned():
    """Both profiles, 44.1 and 48 kHz, noisy rooms and every failure label."""
    rows = []
    for i in range(96):
        rng = np.random.default_rng((2026, i))
        profile = (AUDIBLE, ULTRASONIC)[i % 2]
        rate = (44100, 48000)[i // 2 % 2]
        payload = rng.bytes(int(rng.integers(1, 17)))
        chan = ChannelSpec(
            rir=RirSpec(rt60=float(rng.uniform(0.3, 1.6)), direct_gain=0.7, seed=i),
            snr_db=float(rng.uniform(-5.0, 15.0)),
            noise_seed=i,
        )
        wet = apply_channel(encode_packet(Packet(payload), profile, rate), chan)
        result = decode_packet(wet, profile)
        rows.append([
            payload.hex(),
            None if result.payload is None else result.payload.hex(),
            result.preamble_offset,
            result.corrected_errors,
            result.erasures_used,
            result.failure,
        ])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == DECODE_ROWS_SHA256
