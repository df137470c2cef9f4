"""FSK packet modem: byte payloads to tone sequences and back.

A packet is a concatenation of 80 ms tones drawn from a 32-tone alphabet:
two fixed preamble symbols, one payload-length symbol, the payload packed
into 5-bit symbols, and Reed-Solomon parity.  Payloads longer than a single
GF(32) codeword can carry are split across several equally-sized codewords,
each with its own parity group appended after all the data symbols.

The wire format is fixed: ``ProtocolProfile`` holds it as class constants,
and a profile only chooses the band the 32 tones span.

The receiver measures per-tone magnitudes with single-bin DTFTs against one
kernel of interleaved cos/-sin columns, evaluated over strided views of the
signal (``_partials``).  The preamble scan is one block-DFT grid per
recording: one matrix product gives every symbol/8 block's partial DTFT,
and each 8-block window sums its blocks' partials, so work and memory grow
with the samples, not with samples x window length.  Demodulation reads
the [slots x tones] magnitude grid of the few symbol slots after a
preamble through the same kernel (``_slot_magnitudes``), picks the
strongest tone per slot (``_decisions``), and hands low-confidence
symbols to the Reed-Solomon decoder as erasures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import rs
from .core import AudioBuffer
from .errors import FecError, InvalidArgumentError

__all__ = [
    "ProtocolProfile",
    "Packet",
    "DecodeResult",
    "AUDIBLE",
    "ULTRASONIC",
    "PROFILES",
    "profile_by_name",
    "tone_frequencies",
    "encode_packet",
    "detect_preamble",
    "decode_packet",
]

ERASURE_CONFIDENCE = 1.5  # best/second-best ratio below which a symbol is untrusted
PREAMBLE_SNR = 6.0  # preamble tone must exceed this multiple of the median tone


@dataclass(frozen=True)
class ProtocolProfile:
    """One frequency band of the fixed wire format.

    A profile only chooses the band: its 32 tones (one per GF(32) symbol,
    5 bits each) are spaced evenly across [band_low, band_high].  Everything
    else about a packet is a class constant shared by every profile:
    80 ms symbols with 5 ms raised-cosine ramps at amplitude 0.5, the
    preamble tones, 8 Reed-Solomon parity symbols per codeword and at most
    16 payload bytes.
    """

    name: str
    band_low: float
    band_high: float

    tone_count: ClassVar[int] = rs.FIELD_SIZE
    symbol_duration: ClassVar[float] = 0.080
    preamble: ClassVar[tuple[int, int]] = (0, 31)
    rs_parity: ClassVar[int] = 8
    max_payload_bytes: ClassVar[int] = 16
    ramp_time: ClassVar[float] = 0.005
    amplitude: ClassVar[float] = 0.5

    def __post_init__(self):
        if not 0 < self.band_low < self.band_high:
            raise InvalidArgumentError("require 0 < band_low < band_high")
        spacing = (self.band_high - self.band_low) / (self.tone_count - 1)
        if spacing < 4.0 / self.symbol_duration:
            raise InvalidArgumentError(
                f"tone spacing {spacing:.1f} Hz is below the 4/symbol_duration "
                f"separation bound ({4.0 / self.symbol_duration:.1f} Hz)"
            )

    def symbol_samples(self, sample_rate: int) -> int:
        return int(round(self.symbol_duration * sample_rate))


AUDIBLE = ProtocolProfile(name="audible", band_low=1700.0, band_high=10500.0)
ULTRASONIC = ProtocolProfile(name="ultrasonic", band_low=18000.0, band_high=20000.0)
PROFILES = {profile.name: profile for profile in (AUDIBLE, ULTRASONIC)}


def profile_by_name(name: str) -> ProtocolProfile:
    try:
        return PROFILES[name.lower()]
    except (KeyError, AttributeError):
        raise InvalidArgumentError(f"unknown profile {name!r}") from None


def tone_frequencies(profile: ProtocolProfile, sample_rate: int) -> np.ndarray:
    """Center frequency of each tone, validated against Nyquist."""
    freqs = np.linspace(profile.band_low, profile.band_high, profile.tone_count)
    if freqs[-1] >= sample_rate / 2:
        raise InvalidArgumentError(
            f"top tone {freqs[-1]:.0f} Hz is not below Nyquist ({sample_rate / 2:.0f} Hz)"
        )
    return freqs


@dataclass
class Packet:
    """A payload of 1..16 bytes; the length must fit the 5-bit length symbol."""

    payload: bytes

    def __post_init__(self):
        if not isinstance(self.payload, (bytes, bytearray, memoryview)):
            raise InvalidArgumentError(f"payload must be bytes, got {type(self.payload).__name__}")
        self.payload = bytes(self.payload)
        if not 1 <= len(self.payload) <= ProtocolProfile.max_payload_bytes:
            raise InvalidArgumentError(
                f"payload must be 1..{ProtocolProfile.max_payload_bytes} bytes, got {len(self.payload)}"
            )


@dataclass
class DecodeResult:
    """Outcome of one decode attempt.

    ``failure`` is None on success, else one of ``"no-preamble"``,
    ``"length-symbol-invalid"`` or ``"fec-failure"``.  On success each
    decoded Reed-Solomon block satisfied 2*corrected + erasures <= parity.
    """

    payload: bytes | None
    preamble_offset: int
    corrected_errors: int = 0
    erasures_used: int = 0
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.payload is not None


# ---------------------------------------------------------------------------
# bit packing

def _pack_symbols(payload: bytes) -> list[int]:
    """Pack bytes into 5-bit symbols, MSB first, zero-padded at the tail."""
    total_bits = 8 * len(payload)
    n_symbols = -(-total_bits // rs.SYMBOL_BITS)
    value = int.from_bytes(payload, "big") << (n_symbols * rs.SYMBOL_BITS - total_bits)
    return [
        (value >> (rs.SYMBOL_BITS * (n_symbols - 1 - i))) & (rs.FIELD_SIZE - 1)
        for i in range(n_symbols)
    ]


def _unpack_payload(symbols, n_bytes: int) -> bytes:
    """Inverse of _pack_symbols: recover n_bytes from the symbol stream."""
    symbols = list(symbols)
    if n_bytes < 0 or len(symbols) * rs.SYMBOL_BITS < 8 * n_bytes:
        raise InvalidArgumentError("not enough symbols for the requested byte count")
    value = 0
    for s in symbols:
        value = (value << rs.SYMBOL_BITS) | int(s)
    value >>= len(symbols) * rs.SYMBOL_BITS - 8 * n_bytes
    return int(value).to_bytes(n_bytes, "big") if n_bytes else b""


def _rs_blocks(n_data: int, nparity: int) -> list[tuple[slice, slice]]:
    """(data, parity) slices of each Reed-Solomon block in the packet body.

    The body follows the length symbol: the data, split into the fewest
    equal-ish blocks (larger first), then one parity group per block.
    """
    n_blocks = -(-n_data // (rs.MAX_CODEWORD - nparity))
    q, r = divmod(n_data, n_blocks)
    starts = [b * q + min(b, r) for b in range(n_blocks + 1)]
    return [
        (slice(starts[b], starts[b + 1]), slice(n_data + b * nparity, n_data + (b + 1) * nparity))
        for b in range(n_blocks)
    ]


def _packet_symbols(pkt: Packet, profile: ProtocolProfile) -> list[int]:
    """Body symbols of a packet: length, payload data, then parity groups."""
    data = _pack_symbols(pkt.payload)
    blocks = _rs_blocks(len(data), profile.rs_parity)
    body = data + [0] * (blocks[-1][1].stop - len(data))
    for d, p in blocks:
        body[p] = rs.rs_encode(data[d], profile.rs_parity)[-profile.rs_parity:]
    return [len(pkt.payload)] + body


# ---------------------------------------------------------------------------
# synthesis

@lru_cache(maxsize=8)
def _tone_bank(profile: ProtocolProfile, sample_rate: int) -> np.ndarray:
    """One ramped sinusoid per tone, shape [tone_count, symbol_samples]."""
    freqs = tone_frequencies(profile, sample_rate)
    n = profile.symbol_samples(sample_rate)
    bank = np.outer(freqs, np.arange(n) / sample_rate)
    bank *= 2.0 * np.pi
    np.sin(bank, out=bank)
    bank *= profile.amplitude
    ramp = int(round(profile.ramp_time * sample_rate))
    # raised-cosine attack/release over the first/last ramp samples
    shape = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    bank[:, :ramp] *= shape
    bank[:, n - ramp:] *= shape[::-1]
    bank.setflags(write=False)
    return bank


def encode_packet(pkt: Packet, profile: ProtocolProfile, sample_rate: int) -> AudioBuffer:
    """Synthesize the tone sequence for a packet.

    The result is the concatenation of 2 preamble symbols, 1 length symbol,
    the packed payload symbols, and the Reed-Solomon parity symbols, each a
    ramped sinusoid of ``symbol_duration`` seconds at peak amplitude 0.5.
    """
    symbols = list(profile.preamble) + _packet_symbols(pkt, profile)
    bank = _tone_bank(profile, sample_rate)
    return AudioBuffer(bank[symbols].reshape(-1), sample_rate)


# ---------------------------------------------------------------------------
# analysis

def _slot_window(sym: int) -> tuple[int, int]:
    """(skip, core) of a symbol slot of ``sym`` samples: demodulation reads
    the ``core`` samples after the first ``skip``, its central 80%."""
    skip = int(round(0.1 * sym))
    return skip, sym - 2 * skip


@lru_cache(maxsize=8)
def _dtft_tables(profile: ProtocolProfile, sample_rate: int):
    """The receiver's DTFT kernel and the preamble scan's block rotations.

    Returns (hop, kernel, rotations).  ``kernel`` is [core x 2*tones] with
    interleaved cos/-sin columns, so a real matmul of length-L rows against
    ``kernel[:L]``, viewed as complex, is each row's per-tone DTFT.  Its
    ``core`` rows (see :func:`_slot_window`) are the longest row that
    ``_partials`` reads: a slot's window, which is longer than a scan
    block.  Row j of ``rotations`` is exp(-i*omega*j*hop): the phase that
    places scan block j at its offset within a scan window, for j < sym //
    hop (8 at every rate whose Nyquist clears a profile's band).
    """
    freqs = tone_frequencies(profile, sample_rate)
    omega = 2.0 * np.pi * freqs / sample_rate
    sym = profile.symbol_samples(sample_rate)
    hop = sym // 8
    _, core = _slot_window(sym)
    kernel = np.empty((core, 2 * freqs.size))
    phase = kernel[:, 1::2]  # each phase is read by its cosine before its sine overwrites it
    np.multiply.outer(np.arange(core), omega, out=phase)
    np.cos(phase, out=kernel[:, 0::2])
    np.sin(phase, out=phase)
    np.negative(phase, out=phase)
    rotations = np.exp(-1j * np.outer(np.arange(sym // hop) * hop, omega))
    kernel.setflags(write=False)
    rotations.setflags(write=False)
    return hop, kernel, rotations


def _partials(x: np.ndarray, length: int, count: int, step: int, kernel: np.ndarray) -> np.ndarray:
    """Per-tone DTFTs of x[b*step : b*step + length] for rows b < count.

    The rows are a strided view of ``x`` that BLAS reads in place, so a
    contiguous signal is never copied.
    """
    rows = np.lib.stride_tricks.sliding_window_view(x, length)[::step][:count]
    return (rows @ kernel[:length]).view(np.complex128)


def _scan_magnitudes(x: np.ndarray, count: int, tables) -> np.ndarray:
    """Per-tone DTFT magnitudes of windows x[i*hop : (i + q)*hop], i < count.

    A window is q = len(rotations) consecutive hop blocks.  Block DFT: one
    matmul gives every block's partial DTFT, and a window's DTFT is the sum
    of its q block partials, block j rotated by exp(-i*omega*j*hop).  Partial
    sums restart every window, so rounding does not accumulate along the
    signal.
    """
    hop, kernel, rotations = tables
    q = len(rotations)
    blocks = _partials(x, hop, count + q - 1, hop, kernel)
    acc = blocks[:count].copy()  # rotations[0] is 1
    for j in range(1, q):
        acc += blocks[j:j + count] * rotations[j]
    return np.abs(acc)


def _row_medians(rest: np.ndarray) -> np.ndarray:
    """``np.median(rest, axis=1)`` bit for bit, for an even number of
    columns, computed as numpy computes it but without its NaN check, which
    imports ``numpy.ma`` on first use (about 10 ms of a process's first
    decode).  The partition puts each row's two middle values in columns
    k - 1 and k and any NaN last; a row holding a NaN takes it as its median."""
    k = rest.shape[1] // 2
    part = np.partition(rest, (k - 1, k, -1), axis=1)
    median = np.mean(part[:, k - 1:k + 1], axis=1)
    np.copyto(median, part[:, -1], where=np.isnan(part[:, -1]))
    return median


def detect_preamble(buf: AudioBuffer, profile: ProtocolProfile) -> list[int]:
    """Scan for the two-symbol preamble; returns candidate sample offsets.

    A window of q = 8 hops (hop = symbol // 8) advances by one hop.  An
    offset is a hit when the first preamble tone dominates its window and
    the second preamble tone dominates the window q hops later, each
    exceeding 6x the median magnitude of the non-preamble tones in its own
    window.  Hits closer than one symbol apart form a cluster, which yields
    its earliest and its strongest hit; the returned offsets are sorted
    ascending.  A window is one symbol where hop divides it (24, 32, 44.1,
    48 kHz) and q*hop samples elsewhere (1760 of 1764 at 22.05 kHz).

    One block-DFT grid covers every window of the recording (see
    ``_scan_magnitudes``); the first preamble windows are its rows [0, n-q)
    and the second its rows [q, n).  It costs 2*tones multiply-adds per
    sample plus 8 complex multiply-adds per window and tone; evaluating each
    window directly costs 8 times the first term.  Memory is a few
    [windows x tones] grids; the signal itself is only viewed.
    """
    x = buf.samples
    tables = _dtft_tables(profile, buf.sample_rate)
    hop, _, rotations = tables
    q = len(rotations)
    n = x.size // hop - q + 1  # windows of q whole blocks in the recording
    if n <= q:
        return []
    mags = _scan_magnitudes(x, n, tables)

    tone_a, tone_b = profile.preamble
    others = [t for t in range(profile.tone_count) if t not in {tone_a, tone_b}]
    floor = PREAMBLE_SNR * _row_medians(mags[:, others])
    first, second = mags[:-q, tone_a], mags[q:, tone_b]
    hits = (first > floor[:-q]) & (second > floor[q:])
    if not hits.any():
        return []

    positions = hop * np.flatnonzero(hits)
    scores = first[hits] + second[hits]
    # Per cluster keep the earliest hit as well as the strongest: reverberant
    # tails bias the peak score late, while the true packet start is at the
    # front edge of its cluster.
    candidates: list[int] = []
    cuts = np.flatnonzero(np.diff(positions) > profile.symbol_samples(buf.sample_rate)) + 1
    for pos, score in zip(np.split(positions, cuts), np.split(scores, cuts)):
        candidates.append(int(pos[0]))
        best = int(np.argmax(score))  # the first maximum, so ties go earliest
        if best:
            candidates.append(int(pos[best]))
    return candidates


def _slot_magnitudes(
    buf: AudioBuffer, start: int, count: int, profile: ProtocolProfile
) -> np.ndarray | None:
    """[slots x tones] DTFT magnitudes of ``count`` symbol slots from a
    sample offset, each over the central 80% of its window (tolerant to
    alignment error up to the excluded 10%); None when a window runs
    outside the buffer."""
    x = buf.samples
    _, kernel, _ = _dtft_tables(profile, buf.sample_rate)
    sym = profile.symbol_samples(buf.sample_rate)
    skip, core = _slot_window(sym)
    first_start = start + skip
    if start < 0 or first_start + (count - 1) * sym + core > x.size:
        return None
    return np.abs(_partials(x[first_start:], core, count, sym, kernel))


def _decisions(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strongest tone per slot of a magnitude grid and the best/second-best
    magnitude ratio (inf when only one tone carries any energy, 1 when none
    does).  The tone is argsort's last, so a silent slot reads tone 31."""
    order = np.argsort(mags, axis=1)
    slots = np.arange(len(mags))
    best = mags[slots, order[:, -1]]
    second = mags[slots, order[:, -2]]
    with np.errstate(divide="ignore", invalid="ignore"):
        confidences = np.where(second > 0.0, best / np.maximum(second, 1e-300), np.inf)
    confidences = np.where((second == 0.0) & (best == 0.0), 1.0, confidences)
    return order[:, -1].astype(np.int64), confidences


def _decode_at(buf: AudioBuffer, offset: int, profile: ProtocolProfile) -> DecodeResult:
    """Demodulate and correct the packet whose preamble starts at ``offset``.

    A length outside 1..max_payload_bytes, or a body that runs past the
    buffer, fails as "length-symbol-invalid"; a Reed-Solomon block that
    decodes neither with erasures nor errors-only fails as "fec-failure",
    and so does a decoded body whose pad bits (the last data symbol's
    spare low bits) are not zero.
    """
    sym = profile.symbol_samples(buf.sample_rate)
    invalid = DecodeResult(None, offset, failure="length-symbol-invalid")
    # The length slot is read on its own, then the body: BLAS rounds a
    # one-row product differently from the same row of a longer one, so
    # one read of both would move the decisions' last bits.
    length = _slot_magnitudes(buf, offset + 2 * sym, 1, profile)
    if length is None:
        return invalid
    n_bytes = int(_decisions(length)[0][0])
    if not 1 <= n_bytes <= profile.max_payload_bytes:
        return invalid
    blocks = _rs_blocks(-(-8 * n_bytes // rs.SYMBOL_BITS), profile.rs_parity)
    grid = _slot_magnitudes(buf, offset + 3 * sym, blocks[-1][1].stop, profile)
    if grid is None:
        return invalid
    symbols, confidences = _decisions(grid)

    data, corrected, erasures_used = [], 0, 0
    for d, p in blocks:
        idx = np.r_[d, p]
        codeword = symbols[idx].tolist()
        conf = confidences[idx]
        weak = np.nonzero(conf < ERASURE_CONFIDENCE)[0]
        # Cap erasures two below the parity budget, keeping the least
        # trusted: spending the whole budget leaves no unused syndromes to
        # catch a wrong solve, and a garbage candidate would then "decode".
        weak = weak[np.argsort(conf[weak], kind="stable")]
        weak = weak[: max(0, profile.rs_parity - 2)]
        try:
            decoded, fixed = rs.rs_decode(codeword, profile.rs_parity, erasures=weak)
            erasures_used += len(weak)
        except FecError:
            if not weak.size:  # errors-only was the attempt that just failed
                return DecodeResult(None, offset, failure="fec-failure")
            try:
                decoded, fixed = rs.rs_decode(codeword, profile.rs_parity)
            except FecError:
                return DecodeResult(None, offset, failure="fec-failure")
        data.extend(decoded)
        corrected += fixed
    if data[-1] & ((1 << (len(data) * rs.SYMBOL_BITS - 8 * n_bytes)) - 1):
        return DecodeResult(None, offset, failure="fec-failure")  # _pack_symbols pads with zeros
    return DecodeResult(_unpack_payload(data, n_bytes), offset, corrected, erasures_used)


_FAILURES = ("no-preamble", "length-symbol-invalid", "fec-failure")  # ascending progress


def decode_packet(buf: AudioBuffer, profile: ProtocolProfile) -> DecodeResult:
    """Full receive pipeline: preamble search, demodulation, FEC.

    Preamble candidates are tried earliest-first (under reverberation the
    direct path precedes its echoes); the first candidate whose
    Reed-Solomon blocks all decode wins.  Otherwise the result is that of
    the earliest candidate that got furthest, so its offset and failure
    label describe the same attempt, and no exception is raised.
    """
    best = DecodeResult(None, -1, failure="no-preamble")
    for offset in detect_preamble(buf, profile):
        result = _decode_at(buf, offset, profile)
        if result.ok:
            return result
        if _FAILURES.index(result.failure) > _FAILURES.index(best.failure):
            best = result
    return best
