"""Preamble scan: the block DFT against the direct window gather it replaced.

The reference evaluates every scan window directly: gather a
[windows x q*hop] matrix and multiply it by cos/sin tables of that length.
The block DFT sums the same terms in another order, so magnitudes may
differ by rounding only; candidate lists must be identical.  Where hop
divides the symbol, the second preamble window's rows of the one scan grid
equal a separate scan of the recording shifted by one symbol, bit for bit.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sonolink import modem
from sonolink.core import AudioBuffer
from sonolink.modem import (
    AUDIBLE,
    ULTRASONIC,
    Packet,
    detect_preamble,
    encode_packet,
    tone_frequencies,
)

# float64 rounding of a few thousand products stays near 1e-13 of the
# window's largest magnitude; 1e-9 leaves room without hiding a wrong term
REL_TOL = 1e-9

CASES = [
    (profile, fs)
    for profile in (AUDIBLE, ULTRASONIC)
    for fs in (22050, 32000, 44100, 48000)
    if profile.band_high < fs / 2
]


# rates whose symbol is a whole number of scan hops
EXACT_CASES = [
    (profile, fs)
    for profile in (AUDIBLE, ULTRASONIC)
    for fs in (24000, 32000, 44100, 48000)
    if profile.band_high < fs / 2
]


def _window(profile, fs):
    """(hop, samples per scan window) at this rate."""
    hop, _, rotations = modem._dtft_tables(profile, fs)
    return hop, len(rotations) * hop


def _reference_magnitudes(x, starts, profile, fs):
    """Per-tone DTFT magnitudes of x[s : s + q*hop] by direct gather."""
    freqs = tone_frequencies(profile, fs)
    length = _window(profile, fs)[1]
    phase = 2.0 * np.pi * np.outer(np.arange(length), freqs) / fs
    windows = x[starts[:, None] + np.arange(length)[None, :]]
    return np.hypot(windows @ np.cos(phase), windows @ np.sin(phase))


@st.composite
def recordings(draw, cases=CASES, min_symbols=2):
    profile, fs = draw(st.sampled_from(cases))
    sym = profile.symbol_samples(fs)
    kind = draw(st.sampled_from(["packet", "noisy packet", "noise", "silence"]))
    gain = draw(st.floats(1e-4, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("packet", "noisy packet"):
        payload = draw(st.binary(min_size=1, max_size=4))
        packet = gain * encode_packet(Packet(payload), profile, fs).samples
        offset = draw(st.integers(0, 3 * sym))
        x = np.zeros(offset + packet.size + draw(st.integers(0, 2 * sym)))
        x[offset:offset + packet.size] = packet
    else:
        x = np.zeros(draw(st.integers(min_symbols * sym, (min_symbols + 4) * sym)))
    if kind in ("noisy packet", "noise"):
        x += gain * draw(st.sampled_from([0.01, 0.1, 1.0])) * rng.standard_normal(x.size)
    return profile, AudioBuffer(x, fs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(recordings())
def test_block_scan_matches_direct_windows(case):
    profile, buf = case
    fs = buf.sample_rate
    x = buf.samples
    hop, length = _window(profile, fs)
    tables = modem._dtft_tables(profile, fs)
    starts = np.arange(0, x.size - 2 * length + 1, hop)

    grid = modem._scan_magnitudes(x, starts.size + length // hop, tables)
    for shift in (0, length):  # the first and the second preamble window
        got = grid[shift // hop:][:starts.size]
        want = _reference_magnitudes(x, starts + shift, profile, fs)
        tol = REL_TOL * want.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= tol)

    def reference_scan(signal, count, _tables):
        return _reference_magnitudes(signal, np.arange(count) * hop, profile, fs)

    with mock.patch.object(modem, "_scan_magnitudes", reference_scan):
        expected = detect_preamble(buf, profile)
    assert detect_preamble(buf, profile) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(recordings(EXACT_CASES, min_symbols=13))
def test_second_window_rows_equal_a_shifted_scan(case):
    # a scan of x[sym:] is what the receiver computed for the second preamble
    # window before it read those windows from the one grid; equal bits keep
    # every candidate, decode and report digest where they were.  Recordings
    # are at least one shortest packet (13 symbols) long: BLAS may round a
    # product with few rows differently (numpy's OpenBLAS takes a small-matrix
    # kernel below 1e6 multiply-adds), so at 44.1 and 48 kHz a 4-5 symbol
    # recording can get rows that differ in the last bit
    profile, buf = case
    x = buf.samples
    sym = profile.symbol_samples(buf.sample_rate)
    tables = modem._dtft_tables(profile, buf.sample_rate)
    hop, q = tables[0], len(tables[2])
    assert q * hop == sym
    n = x.size // hop - 2 * q + 1  # preamble window starts
    grid = modem._scan_magnitudes(x, n + q, tables)
    assert np.array_equal(grid[:n], modem._scan_magnitudes(x, n, tables))
    assert np.array_equal(grid[q:q + n], modem._scan_magnitudes(x[sym:], n, tables))


RECEIVE_CASES = [(AUDIBLE, fs) for fs in (22050, 24000, 32000, 44100, 48000)] + [
    (ULTRASONIC, fs) for fs in (44100, 48000)
]


def _clean_receive(profile, fs, payload, lead, tail, noisy, seed):
    """A packet after ``lead`` and before ``tail`` symbols of silence or -60 dB noise."""
    sym = profile.symbol_samples(fs)
    packet = encode_packet(Packet(payload), profile, fs).samples
    offset = int(lead * sym)
    x = np.zeros(offset + packet.size + int(tail * sym))
    x[offset:offset + packet.size] = packet
    if noisy:  # 60 dB below the packet's RMS
        rms = np.sqrt(np.mean(packet**2))
        x += 1e-3 * rms * np.random.default_rng(seed).standard_normal(x.size)
    return AudioBuffer(x, fs), offset


@settings(max_examples=280, deadline=None, derandomize=True)
@given(
    st.sampled_from(RECEIVE_CASES),
    st.binary(min_size=1, max_size=16),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example((AUDIBLE, 24000), b"\0\0\0\0\x1c", 0.5, 0.0, False, 0)
def test_packet_decodes_at_any_offset(case, payload, lead, tail, noisy, seed):
    profile, fs = case
    buf, offset = _clean_receive(profile, fs, payload, lead, tail, noisy, seed)
    hop = _window(profile, fs)[0]
    candidates = detect_preamble(buf, profile)
    own = [c for c in candidates if abs(c - offset) < hop]
    assert any(modem._decode_at(buf, c, profile).payload == payload for c in own)
    result = modem.decode_packet(buf, profile)
    assert result.ok
    if result.payload != payload:  # see the xfail below
        assert result.preamble_offset < min(own)


@pytest.mark.xfail(
    strict=True,
    reason="a candidate half a symbol early can miscorrect to a payload that was "
    "not sent, and decode_packet returns the first success (ROADMAP item 1)",
)
def test_half_symbol_early_candidate_does_not_preempt_the_packet():
    # the candidates are [0, 960, ...]; the packet starts at 960 and decodes
    # there, but the one at 0 comes first and returns f8 16 00 00 00
    buf, _ = _clean_receive(AUDIBLE, 24000, b"\0\0\0\0\x1c", 0.5, 0.0, False, 0)
    assert modem.decode_packet(buf, AUDIBLE).payload == b"\0\0\0\0\x1c"


def test_long_recording_scan_memory_is_bounded():
    # a direct gather of every window holds [windows x symbol] samples, about
    # 160 MB per copy for 60 s at 44.1 kHz; the block scan keeps a few
    # [windows x tones] grids and only views the signal
    fs = 44100
    rng = np.random.default_rng(7)
    x = 1e-3 * rng.standard_normal(60 * fs)
    packet = encode_packet(Packet(b"far"), AUDIBLE, fs).samples
    offset = 40 * fs + 123
    x[offset:offset + packet.size] += packet
    buf = AudioBuffer(x, fs)

    tracemalloc.start()
    try:
        candidates = detect_preamble(buf, AUDIBLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    hop = AUDIBLE.symbol_samples(fs) // 8
    assert any(abs(c - offset) < hop for c in candidates)


def test_row_medians_equal_numpys_median():
    # numpy's median is the mean of the two middle values of a partition,
    # with a NaN check that imports numpy.ma; the scan's floor computes it
    # inline, and must give the same bytes on rows with NaN, inf and ties
    rng = np.random.default_rng(11)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
    for i in range(5000):
        rows, cols = rng.integers(1, 40), 2 * rng.integers(1, 20)
        a = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300)
        if i % 3 == 0:
            mask = rng.random(a.shape) < 0.1
            a[mask] = rng.choice(specials, mask.sum())
        if i % 5 == 0:
            a = np.round(a)
        with np.errstate(all="ignore"):  # inf - inf, and middles whose sum overflows
            want, got = np.median(a, axis=1), modem._row_medians(a)
        assert got.tobytes() == want.tobytes(), i


def test_a_decode_does_not_import_numpy_ma():
    # importing numpy.ma cost a fresh process's first decode about 10 ms
    code = ("import sys\n"
            "from sonolink.modem import AUDIBLE, Packet, decode_packet, encode_packet\n"
            "assert decode_packet(encode_packet(Packet(b'hi'), AUDIBLE, 44100), AUDIBLE).payload == b'hi'\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(modem.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
