"""Preamble scan: the block DFT against the direct window gather it replaced.

The reference evaluates every symbol window directly: gather a
[windows x symbol] matrix and multiply it by full-symbol cos/sin tables.
The block DFT sums the same terms in another order, so magnitudes may
differ by rounding only; candidate lists must be identical.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
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


def _reference_magnitudes(x, starts, profile, fs):
    """Per-tone DTFT magnitudes of x[s : s + symbol] by direct gather."""
    freqs = tone_frequencies(profile, fs)
    sym = profile.symbol_samples(fs)
    phase = 2.0 * np.pi * np.outer(np.arange(sym), freqs) / fs
    windows = x[starts[:, None] + np.arange(sym)[None, :]]
    return np.hypot(windows @ np.cos(phase), windows @ np.sin(phase))


@st.composite
def recordings(draw):
    profile, fs = draw(st.sampled_from(CASES))
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
        x = np.zeros(draw(st.integers(2 * sym, 6 * sym)))
    if kind in ("noisy packet", "noise"):
        x += gain * draw(st.sampled_from([0.01, 0.1, 1.0])) * rng.standard_normal(x.size)
    return profile, AudioBuffer(x, fs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(recordings())
def test_block_scan_matches_direct_windows(case):
    profile, buf = case
    fs = buf.sample_rate
    x = buf.samples
    sym = profile.symbol_samples(fs)
    tables = modem._dtft_tables(profile, fs)
    starts = np.arange(0, x.size - 2 * sym + 1, tables[0])

    for shift in (0, sym):  # the first and the second preamble window
        got = modem._scan_magnitudes(x[shift:], starts.size, sym, tables)
        want = _reference_magnitudes(x, starts + shift, profile, fs)
        tol = REL_TOL * want.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= tol)

    def reference_scan(signal, count, length, _tables):
        return _reference_magnitudes(signal, np.arange(count) * tables[0], profile, fs)

    with mock.patch.object(modem, "_scan_magnitudes", reference_scan):
        expected = detect_preamble(buf, profile)
    assert detect_preamble(buf, profile) == expected


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
