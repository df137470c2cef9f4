"""End-to-end benchmark: packets through reverberant channels, with reports.

For every impulse response in a synthetic RT60 sweep (or a user corpus),
each generated packet is encoded, pushed through the channel, decoded as-is,
dereverberated, and decoded again; per-RIR rows collect decode rates,
distortion and reverberation-reduction metrics, and the blind RT60 estimate.

Reports are fully deterministic given the config seed: work items derive
their randomness from per-item seed sequences, aggregation is
order-independent, and wall-clock timing goes to stderr rather than into
the report files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import AudioBuffer, default_stft_config, stft
from .dereverb import DereverbConfig, dereverberate
from .errors import EstimationError, InvalidArgumentError, SonolinkError, _check_fields
from .metrics import lsd, rr
from .modem import Packet, decode_packet, encode_packet, profile_by_name, tone_frequencies
from .rt60 import estimate_rt60
from .simulate import ChannelSpec, CorpusEntry, RirSpec, apply_channel, load_rir_corpus, synth_rir

__all__ = [
    "SCHEMA_VERSION",
    "BenchConfig",
    "RirRow",
    "BenchReport",
    "run_benchmark",
    "sweep_rooms",
    "write_report",
]

SCHEMA_VERSION = 1

# Domain separators for per-item seed derivation; arbitrary but frozen, so
# reports stay reproducible across releases.
_RIR_TAG = 101
_PAYLOAD_TAG = 202
_NOISE_TAG = 303


def _python_number(value):
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark shape: channel sweep, packet counts, reproducibility seed."""

    profile: str = "audible"
    sample_rate: int = 44100
    rt60_values: tuple[float, ...] = (0.4, 0.8, 1.2, 1.6, 2.0)
    rirs_per_rt: int = 20
    packets_per_rir: int = 20
    payload_bytes: int = 4
    direct_gain: float = 0.7
    corpus_dir: str | None = None
    snr_db: float | None = None
    seed: int = 0
    dereverb: str = "both"
    threads: int | None = None

    def __post_init__(self):
        profile = profile_by_name(self.profile)  # raises on unknown names
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise InvalidArgumentError("sample_rate must be a positive integer")
        tone_frequencies(profile, self.sample_rate)  # raises when the band tops Nyquist
        _check_fields(
            self,
            integers=("packets_per_rir", "rirs_per_rt", "payload_bytes", "seed", "threads"),
            reals=("direct_gain", "snr_db"),
            optional=("threads", "snr_db"),
        )
        if not isinstance(self.rt60_values, (tuple, list)) or not all(
            isinstance(v, numbers.Real) for v in self.rt60_values
        ):
            raise InvalidArgumentError(f"rt60_values must be numbers, got {self.rt60_values!r}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {self.seed}")
        if self.packets_per_rir < 1:
            raise InvalidArgumentError("packets_per_rir must be at least 1")
        if self.rirs_per_rt < 1:
            raise InvalidArgumentError("rirs_per_rt must be at least 1")
        if not self.rt60_values and self.corpus_dir is None:
            raise InvalidArgumentError("rt60_values must be non-empty for a synthetic sweep")
        if any(not (v > 0 and math.isfinite(v)) for v in self.rt60_values):
            raise InvalidArgumentError("rt60_values must all be positive")
        if not 1 <= self.payload_bytes <= profile.max_payload_bytes:
            raise InvalidArgumentError("payload_bytes must be in 1..16")
        if not (self.direct_gain > 0 and math.isfinite(self.direct_gain)):
            raise InvalidArgumentError("direct_gain must be positive")
        if self.dereverb not in ("off", "both"):
            raise InvalidArgumentError("dereverb must be 'off' or 'both'")
        if self.threads is not None and self.threads < 1:
            raise InvalidArgumentError("threads must be at least 1")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise InvalidArgumentError("snr_db must be finite")
        for f in fields(self):  # numpy scalars become the Python numbers JSON can hold
            object.__setattr__(self, f.name, _python_number(getattr(self, f.name)))
        object.__setattr__(self, "rt60_values", tuple(map(_python_number, self.rt60_values)))

    def serializable(self) -> dict:
        """Config as report-ready JSON. ``threads`` is execution detail, not
        part of the experiment's identity, so it stays out."""
        blob = asdict(self)
        del blob["threads"]
        blob["rt60_values"] = list(self.rt60_values)
        return blob


@dataclass
class RirRow:
    """One impulse response's results, averaged over its packets."""

    rir_id: str
    true_rt60: float | None
    estimated_rt60: float | None
    decode_rate_before: float
    decode_rate_after: float | None
    mean_lsd_before: float | None
    mean_lsd_after: float | None
    mean_rr: float | None
    failures: int


CSV_COLUMNS = [f.name for f in fields(RirRow)]


@dataclass
class BenchReport:
    config: dict
    rows: list[RirRow]
    aggregates: dict
    errors: list[dict]
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)


def _round4(value) -> float | None:
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        return None
    return round(value, 4)


def _item_seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def sweep_rooms(rt60_values, rirs_per_rt, direct_gain, seed, sample_rate) -> list[CorpusEntry]:
    """The synthetic sweep's impulse responses, labeled with their RT60.

    Rooms come RT60-major (``rirs_per_rt`` rooms per value), named
    ``rt{rt:g}_r{index:02d}``, and each is seeded from ``seed`` and its
    position, so a given seed always yields the same rooms.
    """
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    return [
        CorpusEntry(
            name=f"rt{rt:g}_r{si:02d}",
            audio=synth_rir(
                RirSpec(rt60=rt, direct_gain=direct_gain, seed=_item_seed(seed, _RIR_TAG, ri, si)),
                sample_rate,
            ),
            rt60=rt,
        )
        for ri, rt in enumerate(rt60_values)
        for si in range(rirs_per_rt)
    ]


def _process_rir(cfg: BenchConfig, profile, rt_index, rir_index, entry: CorpusEntry):
    """Run every packet of one impulse response.

    A domain error (SonolinkError) on one packet counts as a failure in the
    row; any other exception is a bug, and propagates so the whole room is
    reported in ``errors`` with its type.
    """
    fs = entry.audio.sample_rate
    stft_cfg = default_stft_config(fs)
    want_dereverb = cfg.dereverb == "both"
    dcfg = DereverbConfig(stft=stft_cfg)

    before_hits = 0
    after_hits = 0
    lsd_before_vals: list[float] = []
    lsd_after_vals: list[float] = []
    rr_vals: list[float] = []
    failures = 0
    estimated: float | None = None

    for j in range(cfg.packets_per_rir):
        try:
            payload_rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, _PAYLOAD_TAG, rt_index, rir_index, j))
            )
            payload = payload_rng.bytes(cfg.payload_bytes)
            dry = encode_packet(Packet(payload), profile, fs)
            chan = ChannelSpec(
                rir=entry.audio,
                snr_db=cfg.snr_db,
                noise_seed=_item_seed(cfg.seed, _NOISE_TAG, rt_index, rir_index, j),
            )
            wet = apply_channel(dry, chan)

            before_hit = decode_packet(wet, profile).payload == payload

            if j == 0 or want_dereverb:
                wet_spec = stft(wet, stft_cfg)
            if j == 0:
                try:
                    estimated = estimate_rt60(wet_spec).rt60
                except EstimationError:
                    estimated = None

            if want_dereverb:
                processed, _diag = dereverberate(wet_spec, dcfg, rt60=estimated)
                after_hit = decode_packet(processed, profile).payload == payload

                clean = np.zeros(len(wet))
                clean[: len(dry)] = dry.samples
                clean_spec = stft(AudioBuffer(clean, fs), stft_cfg)
                proc_spec = stft(processed, stft_cfg)
                packet_lsd = (lsd(clean_spec, wet_spec), lsd(clean_spec, proc_spec))
                packet_rr = rr(wet_spec, proc_spec, clean_spec)[0]
        except SonolinkError:
            failures += 1
            continue
        # a packet counts in the row's rates and means only once it has
        # completed, so every column averages over the same packets
        before_hits += before_hit
        if want_dereverb:
            after_hits += after_hit
            lsd_before_vals.append(packet_lsd[0])
            lsd_after_vals.append(packet_lsd[1])
            rr_vals.append(packet_rr)

    n = cfg.packets_per_rir
    return RirRow(
        rir_id=entry.name,
        true_rt60=_round4(entry.rt60),
        estimated_rt60=_round4(estimated),
        decode_rate_before=_round4(100.0 * before_hits / n),
        decode_rate_after=_round4(100.0 * after_hits / n) if want_dereverb else None,
        mean_lsd_before=_round4(np.mean(lsd_before_vals)) if lsd_before_vals else None,
        mean_lsd_after=_round4(np.mean(lsd_after_vals)) if lsd_after_vals else None,
        mean_rr=_round4(np.mean(rr_vals)) if rr_vals else None,
        failures=failures,
    )


def _mean_or_none(values) -> float | None:
    values = [v for v in values if v is not None]
    return _round4(np.mean(values)) if values else None


_ROW_MEANS = ("decode_rate_before", "decode_rate_after", "mean_lsd_before",
              "mean_lsd_after", "mean_rr")


def _means(rows: list[RirRow], names) -> dict:
    return {name: _mean_or_none(getattr(r, name) for r in rows) for name in names}


def _aggregate(rows: list[RirRow]) -> dict:
    agg = {"row_count": len(rows), **_means(rows, _ROW_MEANS)}

    paired = [
        (r.mean_lsd_before, r.mean_lsd_after)
        for r in rows
        if r.mean_lsd_before is not None and r.mean_lsd_after is not None
    ]
    agg["lsd_improved_fraction"] = (
        _round4(sum(after < before for before, after in paired) / len(paired))
        if paired
        else None
    )

    estimates = [
        (r.estimated_rt60, r.true_rt60)
        for r in rows
        if r.estimated_rt60 is not None and r.true_rt60 is not None
    ]
    agg["rt60_mae"] = (
        _round4(np.mean([abs(e - t) for e, t in estimates])) if estimates else None
    )
    agg["rt60_estimates"] = len(estimates)

    by_rt: dict[str, list[RirRow]] = {}
    for row in rows:
        key = "unlabeled" if row.true_rt60 is None else f"{row.true_rt60:g}"
        by_rt.setdefault(key, []).append(row)
    agg["by_rt60"] = {
        key: {"rows": len(group), **_means(group, _ROW_MEANS + ("estimated_rt60",))}
        for key, group in sorted(by_rt.items())
    }
    return agg


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Execute the sweep and return the deterministic report.

    Per-packet domain errors are counted in their row; any other failure
    drops the room's row and becomes an entry in the report's ``errors``
    list, naming the exception type.  Neither aborts the run; a sweep room
    that cannot be synthesised raises before any packet runs.
    Timing is printed to stderr only, keeping report bytes seed-determined.
    """
    profile = profile_by_name(cfg.profile)
    if cfg.corpus_dir is not None:
        entries = load_rir_corpus(cfg.corpus_dir, cfg.sample_rate)
        work = [(0, i, entry) for i, entry in enumerate(entries)]
    else:
        rooms = sweep_rooms(cfg.rt60_values, cfg.rirs_per_rt, cfg.direct_gain, cfg.seed, cfg.sample_rate)
        work = [(*divmod(i, cfg.rirs_per_rt), room) for i, room in enumerate(rooms)]

    def run_item(item):
        try:
            return _process_rir(cfg, profile, *item)
        except Exception as exc:  # a whole-RIR failure: report it, keep going
            return {"rir_id": item[2].name, "error": str(exc), "type": type(exc).__name__}

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=cfg.threads or min(os.cpu_count() or 1, 8)) as pool:
        outcomes = list(pool.map(run_item, work))
    elapsed = time.perf_counter() - started

    rows = [o for o in outcomes if isinstance(o, RirRow)]
    errors = [o for o in outcomes if not isinstance(o, RirRow)]

    total_signals = len(work) * cfg.packets_per_rir
    if total_signals:
        print(
            f"[bench] {len(work)} impulse responses x {cfg.packets_per_rir} packets "
            f"in {elapsed:.1f} s ({elapsed / total_signals:.3f} s/signal)",
            file=sys.stderr,
        )

    return BenchReport(
        config=cfg.serializable(),
        rows=rows,
        aggregates=_aggregate(rows),
        errors=errors,
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def write_report(report: BenchReport, directory) -> dict[str, Path]:
    """Write report.json and report.csv into a directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"json": directory / "report.json", "csv": directory / "report.csv"}
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    paths["json"].write_text(text + "\n")
    with open(paths["csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            record = asdict(row)
            writer.writerow([_csv_cell(record[col]) for col in CSV_COLUMNS])
    return paths
