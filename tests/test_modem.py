"""FSK modem: packing, packet anatomy, round trips, robustness, confidences."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonolink import modem, rs
from sonolink.bench import BenchConfig
from sonolink.core import AudioBuffer
from sonolink.errors import InvalidArgumentError
from sonolink.modem import (
    AUDIBLE,
    ULTRASONIC,
    DecodeResult,
    Packet,
    ProtocolProfile,
    _decisions,
    _decode_at,
    _pack_symbols,
    _packet_symbols,
    _rs_blocks,
    _slot_magnitudes,
    _unpack_payload,
    decode_packet,
    detect_preamble,
    encode_packet,
    profile_by_name,
    tone_frequencies,
)
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel

# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------


def test_pack_symbols_oracles():
    assert _pack_symbols(b"\xff") == [31, 28]
    assert _pack_symbols(b"\x00") == [0, 0]
    assert _pack_symbols(b"\x00\x01") == [0, 0, 0, 16]
    assert _pack_symbols(b"") == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(min_size=0, max_size=16))
def test_pack_unpack_roundtrip(payload):
    symbols = _pack_symbols(payload)
    assert len(symbols) == -(-8 * len(payload) // 5)
    assert all(0 <= s < 32 for s in symbols)
    assert _unpack_payload(symbols, len(payload)) == payload


def test_unpack_needs_enough_symbols():
    with pytest.raises(InvalidArgumentError):
        _unpack_payload([1, 2], 2)  # 10 bits cannot hold 16


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


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(16_000, 96_000), st.integers(0, 2**32 - 1))
@example(22_050, 0)
@example(40_000, 0)
@example(40_001, 0)
@example(44_100, 0)
@example(48_000, 0)
def test_ultrasonic_profile_near_nyquist(fs, seed):
    # the 20 kHz top tone needs a rate above 40 kHz; below that both the
    # encoder and the benchmark config refuse it, above it a packet decodes
    rng = np.random.default_rng(seed)
    payload = rng.bytes(int(rng.integers(1, 17)))
    if fs <= 40_000:
        with pytest.raises(InvalidArgumentError, match="Nyquist"):
            encode_packet(Packet(payload), ULTRASONIC, fs)
        with pytest.raises(InvalidArgumentError, match="Nyquist"):
            BenchConfig(profile="ultrasonic", sample_rate=fs)
        return
    BenchConfig(profile="ultrasonic", sample_rate=fs)
    packet = encode_packet(Packet(payload), ULTRASONIC, fs)
    lead = np.zeros(int(rng.integers(0, ULTRASONIC.symbol_samples(fs) + 1)))
    received = AudioBuffer(np.concatenate([lead, packet.samples]), fs)
    assert decode_packet(received, ULTRASONIC).payload == payload


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


@pytest.mark.parametrize("payload", [5, True, "hi", [1, 2], None])
def test_packet_payload_must_be_bytes_like(payload):
    with pytest.raises(InvalidArgumentError, match="payload must be bytes"):
        Packet(payload)


def test_packet_takes_any_bytes_like_payload():
    for payload in (bytearray(b"hi"), memoryview(b"hi")):
        assert Packet(payload).payload == b"hi"


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
    body = _packet_symbols(Packet(bytes(range(1, n_bytes + 1))), AUDIBLE)
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
        result = decode_packet(AudioBuffer(buf.samples * factor, 44100), AUDIBLE)
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


@pytest.mark.parametrize("profile, fs", [(AUDIBLE, 44100), (ULTRASONIC, 48000)])
def test_a_body_with_pad_bits_set_is_rejected(monkeypatch, profile, fs):
    # a 4-byte payload is 32 bits in 7 symbols, so the last data symbol has
    # 3 pad bits, which the sender leaves zero.  A body that sets them under
    # valid Reed-Solomon parity was not sent: it fails as fec-failure
    pkt = Packet(b"\xca\xfe\xba\xbe")
    assert decode_packet(encode_packet(pkt, profile, fs), profile).payload == pkt.payload
    pack = modem._pack_symbols
    monkeypatch.setattr(modem, "_pack_symbols", lambda data: pack(data)[:-1] + [pack(data)[-1] | 0b101])
    body = _packet_symbols(pkt, profile)[1:]
    buf = encode_packet(pkt, profile, fs)
    monkeypatch.undo()
    for d, p in _rs_blocks(7, profile.rs_parity):
        assert rs.rs_decode(body[d] + body[p], profile.rs_parity) == (body[d], 0)
    assert _unpack_payload(body[:7], 4) == pkt.payload  # the pad bits alone differ
    assert _decode_at(buf, 0, profile) == DecodeResult(None, 0, failure="fec-failure")
    assert decode_packet(buf, profile).failure == "fec-failure"


# ---------------------------------------------------------------------------
# demodulation and confidences
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    case=st.sampled_from([(AUDIBLE, 22050), (AUDIBLE, 44100),
                          (ULTRASONIC, 44100), (ULTRASONIC, 48000)]),
    payload=st.binary(min_size=1, max_size=16),
    last_slot=st.booleans(),
    short=st.floats(0.0, 1.0),
)
def test_a_window_past_the_end_fails_as_length_symbol_invalid(case, payload, last_slot, short):
    # cut a clean packet inside the central 80% of its length slot or of its
    # last body slot: decoding at the true offset must fail, not raise
    profile, fs = case
    buf = encode_packet(Packet(payload), profile, fs)
    sym = profile.symbol_samples(fs)
    skip = int(round(0.1 * sym))
    slot = len(buf) // sym - 1 if last_slot else 2
    window_end = slot * sym + sym - skip
    cut = window_end - 1 - int(short * (sym - skip - 1))  # in [slot * sym, window_end)
    result = _decode_at(AudioBuffer(buf.samples[:cut], fs), 0, profile)
    assert result == DecodeResult(None, 0, failure="length-symbol-invalid")


def test_demodulate_reads_back_symbols():
    pkt = Packet(b"\x5a\xc3")
    expected = list(AUDIBLE.preamble) + _packet_symbols(pkt, AUDIBLE)
    buf = encode_packet(pkt, AUDIBLE, 44100)
    symbols, confidences = _decisions(_slot_magnitudes(buf, 0, len(expected), AUDIBLE))
    assert symbols.tolist() == expected
    assert np.all(confidences > 1.5)
    assert _slot_magnitudes(buf, -1, 1, AUDIBLE) is None  # a window before the start


def test_a_silent_slot_reads_the_top_tone_at_confidence_one():
    # the decision is argsort's last tone; argmax would pick tone 0 here
    symbols, confidences = _decisions(np.zeros((1, AUDIBLE.tone_count)))
    assert symbols.tolist() == [31] and confidences.tolist() == [1.0]


def test_noise_never_raises_mean_confidence():
    """Statistical monotonicity: 100 noisy trials, none more confident than clean."""
    pkt = Packet(b"\x5a\xc3\x99\x01")
    buf = encode_packet(pkt, AUDIBLE, 44100)
    count = 2 + len(_packet_symbols(pkt, AUDIBLE))
    _, conf_clean = _decisions(_slot_magnitudes(buf, 0, count, AUDIBLE))
    clean_mean = conf_clean.mean()
    below = 0
    for trial in range(100):
        noise = np.random.default_rng(trial).standard_normal(len(buf)) * 0.05
        _, conf = _decisions(
            _slot_magnitudes(AudioBuffer(buf.samples + noise, 44100), 0, count, AUDIBLE)
        )
        below += conf.mean() <= clean_mean
    assert below == 100


# ---------------------------------------------------------------------------
# the transmitter's and the receiver's tables
# ---------------------------------------------------------------------------

TABLE_CASES = [
    (profile, fs)
    for profile in (AUDIBLE, ULTRASONIC)
    for fs in (22050, 24000, 32000, 44100, 48000, 96000)
    if profile.band_high < fs / 2
]
TABLE_IDS = [f"{profile.name}-{fs}" for profile, fs in TABLE_CASES]


def _first_tone_bank(profile, fs):
    """The tone bank as first written: a temporary per step."""
    freqs = tone_frequencies(profile, fs)
    n = profile.symbol_samples(fs)
    t = np.arange(n) / fs
    bank = profile.amplitude * np.sin(2.0 * np.pi * np.outer(freqs, t))
    ramp = int(round(profile.ramp_time * fs))
    shape = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    bank[:, :ramp] *= shape
    bank[:, n - ramp:] *= shape[::-1]
    return bank


def _first_kernel(profile, fs):
    """The DTFT kernel as first written: a row per sample of the symbol."""
    freqs = tone_frequencies(profile, fs)
    omega = 2.0 * np.pi * freqs / fs
    phase = np.outer(np.arange(profile.symbol_samples(fs)), omega)
    kernel = np.empty((phase.shape[0], 2 * freqs.size))
    kernel[:, 0::2] = np.cos(phase)
    kernel[:, 1::2] = -np.sin(phase)
    return kernel


@pytest.mark.parametrize("profile, fs", TABLE_CASES, ids=TABLE_IDS)
def test_tables_equal_their_first_expressions_byte_for_byte(profile, fs):
    assert modem._tone_bank(profile, fs).tobytes() == _first_tone_bank(profile, fs).tobytes()
    _, kernel, _ = modem._dtft_tables(profile, fs)
    _, core = modem._slot_window(profile.symbol_samples(fs))
    assert kernel.shape == (core, 2 * profile.tone_count) and kernel.flags.c_contiguous
    assert kernel.tobytes() == _first_kernel(profile, fs)[:core].tobytes()


@pytest.mark.parametrize("profile, fs", TABLE_CASES, ids=TABLE_IDS)
def test_every_dtft_read_fits_the_kernel_and_one_reads_all_of_it(monkeypatch, profile, fs):
    reads = []
    partials = modem._partials

    def spy(x, length, count, step, kernel):
        reads.append((length, kernel.shape[0]))
        return partials(x, length, count, step, kernel)

    monkeypatch.setattr(modem, "_partials", spy)
    sym = profile.symbol_samples(fs)
    payload = b"sonolink kernel!"  # two RS blocks
    wave = encode_packet(Packet(payload), profile, fs).samples
    buf = AudioBuffer(np.concatenate([np.zeros(sym), wave, np.zeros(sym)]), fs)
    assert decode_packet(buf, profile).payload == payload
    rows = modem._dtft_tables(profile, fs)[1].shape[0]
    assert {r for _, r in reads} == {rows}
    assert max(length for length, _ in reads) == rows  # the kernel has no unread row


@pytest.mark.parametrize("profile, fs", TABLE_CASES, ids=TABLE_IDS)
def test_tables_are_built_in_place(profile, fs):
    # a temporary per step holds two tables' worth or more at once; in place,
    # only the time axis and numpy's buffers for strided operands (up to
    # 0.3 of the smallest table) come on top
    for build, tables in ((modem._tone_bank, lambda bank: [bank]),
                          (modem._dtft_tables, lambda out: out[1:])):
        tracemalloc.start()
        try:
            made = build.__wrapped__(profile, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(t.nbytes for t in tables(made))


def test_a_first_receive_per_profile_and_rate_holds_only_its_tables():
    cases = [(profile, fs) for profile in (AUDIBLE, ULTRASONIC) for fs in (44100, 48000)]
    packet = Packet(b"held")
    decode_packet(encode_packet(packet, AUDIBLE, 32000), AUDIBLE)  # numpy's and rs's first uses
    modem._tone_bank.cache_clear()
    modem._dtft_tables.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for profile, fs in cases:
            assert decode_packet(encode_packet(packet, profile, fs), profile).ok
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tables = sum(modem._tone_bank(profile, fs).nbytes
                 + sum(t.nbytes for t in modem._dtft_tables(profile, fs)[1:])
                 for profile, fs in cases)
    assert tables <= held <= tables + 16_384


# ---------------------------------------------------------------------------
# pinned end-to-end decode results
# ---------------------------------------------------------------------------

# sha256 of the rows below: 61 correct, 10 wrong payloads, 20 fec-failure
# and 5 length-symbol-invalid out of 96 packets.  Rows 7, 53, 54, 83 and 95
# are fec-failures because their one RS-valid decode set pad bits.
DECODE_ROWS_SHA256 = "c5a5bc6053ff201e22b0f6acbfcd65ddcbee075c5303cae0db3965a66359df75"


@pytest.fixture(scope="module")
def pinned_receives():
    """(profile, received audio, payload sent, decode result) of 96 packets."""
    receives = []
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
        receives.append((profile, wet, payload, decode_packet(wet, profile)))
    return receives


def test_decode_results_are_pinned(pinned_receives):
    """Both profiles, 44.1 and 48 kHz, noisy rooms and every failure label."""
    rows = [
        [
            payload.hex(),
            None if result.payload is None else result.payload.hex(),
            result.preamble_offset,
            result.corrected_errors,
            result.erasures_used,
            result.failure,
        ]
        for _, _, payload, result in pinned_receives
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == DECODE_ROWS_SHA256


def test_failed_receive_is_one_candidates_result(pinned_receives):
    # offset, label and counts of a failed receive come from the same attempt
    failed = [(profile, wet, result) for profile, wet, _, result in pinned_receives if not result.ok]
    assert failed
    for profile, wet, result in failed:
        if result.failure == "no-preamble":
            assert result.preamble_offset == -1 and not detect_preamble(wet, profile)
        else:
            assert _decode_at(wet, result.preamble_offset, profile) == result
