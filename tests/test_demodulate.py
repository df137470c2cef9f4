"""Demodulation: the shared DTFT kernel's magnitude grid against the window
gather it replaced.

The reference gathers a [slots x core] matrix of each symbol slot's central
80% and multiplies it by cos/sin tables built from 2*pi*f*n/fs.  The kernel
path reads the same samples through a strided view against the receiver's
one cos/-sin kernel, built from omega*n, so magnitudes may differ by
rounding only: the grids must agree to rounding, the decisions taken from
them must match wherever the reference's best tone clearly beats the
second, and confidences must agree to rounding.
"""

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
    _decisions,
    _slot_magnitudes,
    decode_packet,
    encode_packet,
    tone_frequencies,
)

# rounding of a few thousand products stays near 1e-13 relative; 1e-9 leaves
# room without hiding a wrong sample or a wrong tone
REL_TOL = 1e-9

CASES = [
    (profile, fs)
    for profile in (AUDIBLE, ULTRASONIC)
    for fs in (22050, 32000, 44100, 48000)
    if profile.band_high < fs / 2
]


def _reference_magnitudes(buf, start_offset, count, profile):
    """[slots x tones] magnitudes of ``count`` slots by direct gather; None
    when a window runs outside the buffer."""
    x = buf.samples
    fs = buf.sample_rate
    freqs = tone_frequencies(profile, fs)
    sym = profile.symbol_samples(fs)
    skip = int(round(0.1 * sym))
    core = sym - 2 * skip
    starts = start_offset + np.arange(count) * sym + skip
    if start_offset < 0 or starts[-1] + core > x.size:
        return None
    phase = 2.0 * np.pi * np.outer(np.arange(core), freqs) / fs
    windows = x[starts[:, None] + np.arange(core)[None, :]]
    return np.hypot(windows @ np.cos(phase), windows @ np.sin(phase))


@st.composite
def slots(draw):
    profile, fs = draw(st.sampled_from(CASES))
    sym = profile.symbol_samples(fs)
    kind = draw(st.sampled_from(["packet", "noisy packet", "noise", "silence"]))
    gain = draw(st.floats(1e-4, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = 0
    if kind in ("packet", "noisy packet"):
        payload = draw(st.binary(min_size=1, max_size=16))
        packet = gain * encode_packet(Packet(payload), profile, fs).samples
        offset = draw(st.integers(0, 3 * sym))
        x = np.zeros(offset + packet.size + draw(st.integers(0, 2 * sym)))
        x[offset:offset + packet.size] = packet
    else:
        x = np.zeros(draw(st.integers(2 * sym, 6 * sym)))
    if kind in ("noisy packet", "noise"):
        x += gain * draw(st.sampled_from([0.01, 0.1, 1.0])) * rng.standard_normal(x.size)
    if kind.endswith("packet") and draw(st.booleans()):
        # near a symbol boundary, within the 10% each slot leaves out
        slot = draw(st.integers(0, 12))
        start = max(0, offset + slot * sym + draw(st.integers(-sym // 10, sym // 10)))
    else:
        start = draw(st.integers(0, x.size - sym))
    start = min(start, x.size - sym)
    count = draw(st.integers(1, (x.size - start) // sym))
    return profile, AudioBuffer(x, fs), start, count, kind


@settings(max_examples=120, deadline=None, derandomize=True)
@given(slots())
def test_kernel_demodulation_matches_gather(case):
    profile, buf, start, count, kind = case
    got = _slot_magnitudes(buf, start, count, profile)
    want = _reference_magnitudes(buf, start, count, profile)
    # a tone far below its grid's loudest carries that tone's rounding
    np.testing.assert_allclose(got, want, rtol=REL_TOL, atol=REL_TOL * want.max())

    got_symbols, got_conf = _decisions(got)
    want_symbols, want_conf = _decisions(want)
    clear = want_conf > 1.0 + REL_TOL
    assert np.array_equal(got_symbols[clear], want_symbols[clear])
    assert np.allclose(got_conf, want_conf, rtol=REL_TOL, atol=0.0)

    if kind.endswith("packet"):
        with mock.patch.object(modem, "_slot_magnitudes", _reference_magnitudes):
            want = decode_packet(buf, profile)
        got = decode_packet(buf, profile)
        assert (got.payload, got.preamble_offset, got.failure) == (
            want.payload, want.preamble_offset, want.failure
        )
        assert (got.corrected_errors, got.erasures_used) == (
            want.corrected_errors, want.erasures_used
        )
