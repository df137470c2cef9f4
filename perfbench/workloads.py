"""The benchmark's three workloads: seeded input generation and one item's call chain.

Each workload hands the run loop its items a round at a time
(:meth:`round`), generating them before the item clock starts, and runs one
item with :meth:`run`; ``item_s`` is its nominal time per item, from which
the run loop sizes a fixed item set for the requested run length.  Every
call into sonolink goes through a public function of ``simulate``,
``modem``, ``rs``, ``rt60``, ``dereverb``, ``core`` or ``metrics``, inside
a span named ``<module>.<function>``.
Inputs derive from the run's seed alone.

With tracing on, each item also records counters and runs probes: direct
calls, on the same input, of functions the item reaches only inside another
call (``detect_preamble``, ``estimate_rt60`` on the blind path,
``reverberant_psd``, ``spectral_gain``, ``istft``), plus ``rs_decode`` on
seeded codewords.  Probe results are cross-checked against the call they
mirror, so a probe that disagrees is reported as a problem, not a timing.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from sonolink.core import AudioBuffer, Spectrogram, default_stft_config, istft, stft
from sonolink.dereverb import (
    DereverbConfig,
    ReverbModel,
    dereverberate,
    reverberant_psd,
    spectral_gain,
)
from sonolink.errors import EstimationError
from sonolink.metrics import lsd, rr
from sonolink.modem import (
    AUDIBLE,
    ULTRASONIC,
    Packet,
    ProtocolProfile,
    decode_packet,
    detect_preamble,
    encode_packet,
)
from sonolink.rs import MAX_CODEWORD, SYMBOL_BITS, rs_decode, rs_encode
from sonolink.rt60 import estimate_rt60
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel, synth_rir

# Seed-derivation tags.  The first three are the values sonolink.bench uses,
# so for a given seed the sweep workload draws exactly the acceptance
# sweep's rooms, payloads and noise (test_perfbench.py checks this).
RIR_TAG, PAYLOAD_TAG, NOISE_TAG = 101, 202, 303
LONG_TAG, MODEM_TAG, RS_TAG = 404, 505, 606

SWEEP_RT60 = (0.4, 0.8, 1.2, 1.6, 2.0)
DIRECT_GAIN = 0.7
FAILURE_LABELS = ("no-preamble", "length-symbol-invalid", "fec-failure")

# Layers the traced run reports a time for.  A workload whose items never
# reach one of them probes it once on its first item's signal instead.
LAYER_SPANS = (
    "core.stft",
    "core.istft",
    "dereverb.dereverberate",
    "dereverb.reverberant_psd",
    "dereverb.spectral_gain",
    "rt60.estimate_rt60",
    "modem.detect_preamble",
    "modem.decode_packet",
    "modem.encode_packet",
    "simulate.apply_channel",
    "rs.rs_decode",
    "metrics.lsd",
    "metrics.rr",
)


def item_seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def rng_for(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class Outcome:
    """What one item did, as far as the quality metrics and checks need it."""

    audio_s: float = 0.0
    before_ok: bool = False
    after_ok: bool | None = None  # None where the workload does not dereverberate
    wrong_payload: bool = False  # some decode returned a payload other than the one sent
    rt60_error: float | None = None
    lsd_before: float | None = None
    lsd_after: float | None = None
    rr: float | None = None
    error: str | None = None  # type name of the exception a layer call raised
    problems: list[str] = field(default_factory=list)  # broken invariants

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong_payload

    def fingerprint(self) -> tuple:
        """The seed-determined part, compared between the untraced and traced pass."""
        return (self.before_ok, self.after_ok, self.wrong_payload, self.rt60_error,
                self.lsd_before, self.lsd_after, self.rr, self.error)


# ---------------------------------------------------------------------------
# layer calls shared by the workloads


def _count_stft(tr, n_samples: int, cfg) -> None:
    """Computed work of one STFT grid: frames as core.stft lays them out, 8 bytes per windowed sample."""
    frames = 1 + math.ceil((n_samples - cfg.window_length) / cfg.hop)
    tr.add("core.stft.calls")
    tr.add("core.stft.frames", frames)
    tr.add("core.stft.bytes_computed", frames * cfg.window_length * 8)


def _stft(tr, buf: AudioBuffer, cfg) -> Spectrogram:
    with tr.span("core.stft"):
        spec = stft(buf, cfg)
    if tr.on:
        _count_stft(tr, len(buf), cfg)
    return spec


def _probe_rs(tr, rng: np.random.Generator, n_data: int, nparity: int, out: Outcome) -> None:
    """rs_decode on a seeded codeword corrupted within 2e + f <= nparity."""
    data = [int(v) for v in rng.integers(0, 32, n_data)]
    codeword = rs_encode(data, nparity)
    errors = int(rng.integers(0, nparity // 2 + 1))
    erasures = int(rng.integers(0, nparity - 2 * errors + 1))
    positions = rng.choice(len(codeword), size=errors + erasures, replace=False)
    for p in positions:
        codeword[p] = (codeword[p] + int(rng.integers(1, 32))) % 32
    with tr.span("rs.rs_decode", probe=True):
        decoded, _ = rs_decode(codeword, nparity, erasures=[int(p) for p in positions[errors:]])
    if decoded != data:
        out.problems.append("rs_decode did not recover a codeword within 2e+f <= parity")


def _data_symbols(n_bytes: int) -> int:
    return -(-8 * n_bytes // SYMBOL_BITS)


def _decode(tr, buf: AudioBuffer, profile: ProtocolProfile, payload: bytes,
            out: Outcome, rng: np.random.Generator | None = None) -> bool:
    """decode_packet plus its checks; True when the payload came back intact."""
    with tr.span("modem.decode_packet"):
        res = decode_packet(buf, profile)
    if res.ok != (res.failure is None) or (not res.ok and res.failure not in FAILURE_LABELS):
        out.problems.append(f"inconsistent DecodeResult (failure={res.failure!r})")
    if res.ok:
        blocks = -(-_data_symbols(len(res.payload)) // (MAX_CODEWORD - profile.rs_parity))
        if 2 * res.corrected_errors + res.erasures_used > blocks * profile.rs_parity:
            out.problems.append("decode spent more than the 2e+f <= parity budget")
        if res.payload != payload:
            out.wrong_payload = True
    if tr.on:
        with tr.span("probe.decode_packet", probe=True):  # probes plus their bookkeeping
            _probe_decode(tr, buf, profile, res, payload, out)
            n_data = min(_data_symbols(len(payload)), MAX_CODEWORD - profile.rs_parity)
            _probe_rs(tr, rng, n_data, profile.rs_parity, out)
    return res.ok and res.payload == payload


def _probe_decode(tr, buf, profile, res, payload, out) -> None:
    with tr.span("modem.detect_preamble", probe=True):
        candidates = detect_preamble(buf, profile)
    sym = profile.symbol_samples(buf.sample_rate)
    # detect_preamble scans window starts every symbol/8 samples and measures
    # two symbol windows per start against every tone
    starts = len(range(0, len(buf) - 2 * sym + 1, max(1, sym // 8)))
    tr.add("modem.detect_preamble.calls")
    tr.add("modem.detect_preamble.windows", 2 * starts * sym * profile.tone_count)
    tr.add("modem.detect_preamble.candidates", len(candidates))
    tr.add("modem.decode_packet.calls")
    if not res.ok:
        tr.add(f"modem.decode_packet.fail.{res.failure}")
        return
    if res.preamble_offset not in candidates:
        out.problems.append("decoded offset is not among detect_preamble's candidates")
        return
    tr.add("modem.decode_packet.ok")
    tr.add("modem.decode_packet.candidate_rank", candidates.index(res.preamble_offset) + 1)
    tr.add("modem.decode_packet.corrected_errors", res.corrected_errors)
    tr.add("modem.decode_packet.erasures_used", res.erasures_used)
    if res.payload != payload:
        tr.add("modem.decode_packet.wrong_payload")


def _estimate(tr, buf: AudioBuffer, cfg, probe: bool = False) -> float | None:
    """estimate_rt60, None when it raises EstimationError (as bench does).

    A probe mirrors the call inside blind dereverberate, so its counts stand
    for that call's work.
    """
    tr.add("rt60.estimate_rt60.calls")
    _count_stft(tr, len(buf), cfg)
    try:
        with tr.span("rt60.estimate_rt60", probe=probe):
            est = estimate_rt60(buf, cfg)
    except EstimationError:
        tr.add("rt60.estimate_rt60.failures")
        return None
    tr.add("rt60.estimate_rt60.bands_used", est.bands_used)
    return est.rt60


def _probe_suppressor(tr, buf, dcfg: DereverbConfig, rt60: float, processed, out) -> None:
    """dereverberate's stages called one by one; must rebuild its output exactly."""
    cfg = dcfg.stft or default_stft_config(buf.sample_rate)
    with tr.span("core.stft", probe=True):
        grid = stft(buf, cfg)
    power = grid.power()
    with tr.span("dereverb.reverberant_psd", probe=True):
        gamma = reverberant_psd(power, ReverbModel(rt60), dcfg, cfg.frame_period(buf.sample_rate))
    with tr.span("dereverb.spectral_gain", probe=True):
        gains = spectral_gain(power, gamma, dcfg)
    shaped = Spectrogram(grid.bins * gains.gain, cfg, buf.sample_rate, len(buf))
    with tr.span("core.istft", probe=True):
        rebuilt = istft(shaped)
    if not np.array_equal(rebuilt.samples, processed.samples):
        out.problems.append("dereverberate's stages called one by one give another output")


def _dereverberate(tr, buf: AudioBuffer, dcfg: DereverbConfig, rt60: float | None, out: Outcome):
    with tr.span("dereverb.dereverberate"):
        processed, diag = dereverberate(buf, dcfg, rt60=rt60)
    if len(processed) != len(buf):
        out.problems.append("dereverberate changed the signal length")
    if not dcfg.gain_floor <= diag.mean_gain <= 1.0:
        out.problems.append("mean suppression gain outside [gain_floor, 1]")
    if tr.on:
        tr.add("dereverb.dereverberate.calls")
        tr.add("dereverb.dereverberate.rt60_fallback", diag.rt60_fallback)
        tr.add("dereverb.dereverberate.mean_gain", diag.mean_gain)
        cfg = dcfg.stft or default_stft_config(buf.sample_rate)
        _count_stft(tr, len(buf), cfg)
        with tr.span("probe.dereverberate", probe=True):
            if rt60 is None:  # the blind path runs estimate_rt60 inside: mirror it
                mirrored = _estimate(tr, buf, cfg, probe=True)
                if diag.rt60_estimated and mirrored != diag.rt60:
                    out.problems.append("estimate_rt60 disagrees with dereverberate's estimate")
            _probe_suppressor(tr, buf, dcfg, diag.rt60, processed, out)
    return processed, diag


def probe_unreached(tr, clean: AudioBuffer, wet: AudioBuffer, out: Outcome) -> None:
    """Time, once, the layers this workload's items never reach, on its own signal.

    Adds spans only (no counters): the counts describe the items' work.
    """
    missing = set(LAYER_SPANS) - tr.names()
    if not missing:
        return

    def span(name: str):
        return tr.span(name, probe=True) if name in missing else contextlib.nullcontext()

    cfg = default_stft_config(wet.sample_rate)
    dcfg = DereverbConfig(stft=cfg)
    with span("dereverb.dereverberate"):
        processed, diag = dereverberate(wet, dcfg)
    if "rt60.estimate_rt60" in missing:
        try:
            with span("rt60.estimate_rt60"):
                estimate_rt60(wet, cfg)
        except EstimationError:
            pass
    if missing & {"core.stft", "core.istft", "dereverb.reverberant_psd", "dereverb.spectral_gain"}:
        _probe_suppressor(tr, wet, dcfg, diag.rt60, processed, out)
    if missing & {"metrics.lsd", "metrics.rr"}:
        clean_spec, wet_spec, proc_spec = (stft(b, cfg) for b in (clean, wet, processed))
        with span("metrics.lsd"):
            lsd(clean_spec, proc_spec)
        with span("metrics.rr"):
            rr(wet_spec, proc_spec, clean_spec)


def _padded(dry: AudioBuffer, length: int, offset: int = 0) -> AudioBuffer:
    clean = np.zeros(length)
    clean[offset:offset + len(dry)] = dry.samples
    return AudioBuffer(clean, dry.sample_rate)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Room:
    ri: int  # index into the RT60 values
    si: int  # room index at that RT60
    rt60: float
    rir: AudioBuffer
    estimate: float | None = None  # from the room's first packet, as bench does


class Sweep:
    """The acceptance sweep's shape, one signal per item, in bench._process_rir's order.

    A round is one room at each RT60 with two packets each, so every round
    holds the same mix of signal lengths and of packets that run
    estimate_rt60 (the first of each room) and packets that do not.
    """

    name = "sweep"
    item_s = 0.42  # nominal seconds per item, on a 2-vCPU x86-64 VM
    quality_rounds = 4  # 20 rooms, 40 signals
    trace_rounds = 2
    profiles = ((AUDIBLE, 44100),)

    packets_per_room = 2
    payload_bytes = 4
    fs = 44100

    def __init__(self, seed: int, rt60_values=SWEEP_RT60):
        self.seed = seed
        self.rt60_values = tuple(rt60_values)
        self.stft_cfg = default_stft_config(self.fs)
        self.dcfg = DereverbConfig(stft=self.stft_cfg)
        self.round_size = len(self.rt60_values) * self.packets_per_room

    def room(self, ri: int, si: int) -> Room:
        rt = self.rt60_values[ri]
        spec = RirSpec(rt60=rt, direct_gain=DIRECT_GAIN, seed=item_seed(self.seed, RIR_TAG, ri, si))
        return Room(ri, si, rt, synth_rir(spec, self.fs))

    def round(self, r: int, tr) -> list:
        rooms = [self.room(ri, r) for ri in range(len(self.rt60_values))]
        return [(room, j) for room in rooms for j in range(self.packets_per_room)]

    def _payload(self, room: Room, j: int) -> bytes:
        return rng_for(self.seed, PAYLOAD_TAG, room.ri, room.si, j).bytes(self.payload_bytes)

    def _channel(self, room: Room, j: int) -> ChannelSpec:
        return ChannelSpec(rir=room.rir, noise_seed=item_seed(self.seed, NOISE_TAG, room.ri, room.si, j))

    def probe_signals(self, item) -> tuple[AudioBuffer, AudioBuffer]:
        """(clean, received) of an item, for probing layers its chain never reached."""
        room, j = item
        dry = encode_packet(Packet(self._payload(room, j)), AUDIBLE, self.fs)
        wet = apply_channel(dry, self._channel(room, j))
        return _padded(dry, len(wet)), wet

    def run(self, item, tr) -> Outcome:
        room, j = item
        out = Outcome()
        payload = self._payload(room, j)
        rs_rng = rng_for(RS_TAG, self.seed, room.ri, room.si, j) if tr.on else None
        with tr.span("modem.encode_packet"):
            dry = encode_packet(Packet(payload), AUDIBLE, self.fs)
        with tr.span("simulate.apply_channel"):
            wet = apply_channel(dry, self._channel(room, j))
        out.audio_s = wet.duration

        out.before_ok = _decode(tr, wet, AUDIBLE, payload, out, rs_rng)
        if j == 0:
            room.estimate = _estimate(tr, wet, self.stft_cfg)
            if room.estimate is not None:
                out.rt60_error = abs(room.estimate - room.rt60)
        processed, _ = _dereverberate(tr, wet, self.dcfg, room.estimate, out)
        out.after_ok = _decode(tr, processed, AUDIBLE, payload, out, rs_rng)

        clean_spec = _stft(tr, _padded(dry, len(wet)), self.stft_cfg)
        wet_spec = _stft(tr, wet, self.stft_cfg)
        proc_spec = _stft(tr, processed, self.stft_cfg)
        with tr.span("metrics.lsd"):
            out.lsd_before = lsd(clean_spec, wet_spec)
        with tr.span("metrics.lsd"):
            out.lsd_after = lsd(clean_spec, proc_spec)
        with tr.span("metrics.rr"):
            out.rr = rr(wet_spec, proc_spec, clean_spec)[0]
        return out


@dataclass
class Recording:
    index: int
    buf: AudioBuffer
    payload: bytes
    rt60: float
    offset: int
    dry: AudioBuffer


class LongRecording:
    """15 s recordings holding one packet each; one item is one blind receive.

    Recordings are generated when the workload is built, before any item is
    timed, and the run cycles through them.  15 s rather than 30 s: at
    about 1.3 s an item, a 30 s run holds some 22 items instead of 11, and
    the run's median no longer rests on a handful of them.
    """

    name = "long_recording"
    seconds = 15.0
    snr_db = 20.0
    round_size = 1
    item_s = 1.35
    quality_rounds = 6
    trace_rounds = 3
    profiles = ((AUDIBLE, 44100),)

    fs = 44100

    def __init__(self, seed: int, count: int, tr):
        self.seed = seed
        self.dcfg = DereverbConfig(stft=default_stft_config(self.fs))
        self.recordings = [self._generate(k, tr) for k in range(count)]

    def _generate(self, k: int, tr) -> Recording:
        rng = rng_for(self.seed, LONG_TAG, k)
        payload = rng.bytes(int(rng.integers(4, 17)))
        rt60 = float(rng.uniform(0.8, 2.0))
        rir = synth_rir(
            RirSpec(rt60=rt60, direct_gain=DIRECT_GAIN, seed=item_seed(self.seed, LONG_TAG, k, RIR_TAG)),
            self.fs,
        )
        with tr.span("modem.encode_packet"):
            dry = encode_packet(Packet(payload), AUDIBLE, self.fs)
        n = int(self.seconds * self.fs)
        # any sample offset that keeps the packet and its reverberant tail inside
        offset = int(rng.integers(0, n - len(dry) - len(rir) + 1))
        chan = ChannelSpec(rir=rir, snr_db=self.snr_db,
                           noise_seed=item_seed(self.seed, LONG_TAG, k, NOISE_TAG))
        with tr.span("simulate.apply_channel"):
            wet = apply_channel(_padded(dry, n, offset), chan)
        buf = AudioBuffer(wet.samples[:n], self.fs)
        return Recording(k, buf, payload, rt60, offset, dry)

    def round(self, r: int, tr) -> list:
        return [self.recordings[r % len(self.recordings)]]

    def probe_signals(self, rec: Recording) -> tuple[AudioBuffer, AudioBuffer]:
        return _padded(rec.dry, len(rec.buf), rec.offset), rec.buf

    def run(self, rec: Recording, tr) -> Outcome:
        out = Outcome(audio_s=rec.buf.duration)
        rs_rng = rng_for(RS_TAG, self.seed, rec.index) if tr.on else None
        out.before_ok = _decode(tr, rec.buf, AUDIBLE, rec.payload, out, rs_rng)
        processed, diag = _dereverberate(tr, rec.buf, self.dcfg, None, out)
        out.rt60_error = abs(diag.rt60 - rec.rt60)
        out.after_ok = _decode(tr, processed, AUDIBLE, rec.payload, out, rs_rng)
        return out


@dataclass
class ModemItem:
    index: int
    profile: ProtocolProfile
    fs: int
    payload: bytes
    channel: ChannelSpec


class Modem:
    """Short packets over a mild room: encode, channel, decode and nothing else.

    The draw covers both profiles and rates, 1..16-byte payloads, RT60
    0.3..0.6 s and SNR -5..10 dB.  That range holds packets the decoder
    miscorrects into a wrong payload; they stay in and count as failed.
    """

    name = "modem"
    round_size = 20
    item_s = 0.034
    quality_rounds = 20  # 400 packets
    trace_rounds = 5
    profiles = tuple((p, fs) for p in (AUDIBLE, ULTRASONIC) for fs in (44100, 48000))

    def __init__(self, seed: int):
        self.seed = seed

    def item(self, i: int) -> ModemItem:
        rng = rng_for(self.seed, MODEM_TAG, i)
        profile, fs = self.profiles[int(rng.integers(0, len(self.profiles)))]
        payload = rng.bytes(int(rng.integers(1, 17)))
        rir = RirSpec(rt60=float(rng.uniform(0.3, 0.6)), direct_gain=DIRECT_GAIN,
                      seed=item_seed(self.seed, MODEM_TAG, i, RIR_TAG))
        chan = ChannelSpec(rir=rir, snr_db=float(rng.uniform(-5.0, 10.0)),
                           noise_seed=item_seed(self.seed, MODEM_TAG, i, NOISE_TAG))
        return ModemItem(i, profile, fs, payload, chan)

    def round(self, r: int, tr) -> list:
        return [self.item(r * self.round_size + k) for k in range(self.round_size)]

    def probe_signals(self, item: ModemItem) -> tuple[AudioBuffer, AudioBuffer]:
        dry = encode_packet(Packet(item.payload), item.profile, item.fs)
        wet = apply_channel(dry, item.channel)
        return _padded(dry, len(wet)), wet

    def run(self, item: ModemItem, tr) -> Outcome:
        out = Outcome()
        rs_rng = rng_for(RS_TAG, self.seed, item.index) if tr.on else None
        with tr.span("modem.encode_packet"):
            dry = encode_packet(Packet(item.payload), item.profile, item.fs)
        with tr.span("simulate.apply_channel"):
            wet = apply_channel(dry, item.channel)
        out.audio_s = wet.duration
        out.before_ok = _decode(tr, wet, item.profile, item.payload, out, rs_rng)
        return out


WORKLOADS = {cls.name: cls for cls in (Sweep, LongRecording, Modem)}
