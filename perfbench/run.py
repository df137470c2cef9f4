"""sonolink benchmark: three closed-loop workloads, one client each.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload`` is ``sweep``, ``long_recording``, ``modem`` or ``all`` (each
workload in its own process, one after another).  With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it runs a fixed item
set once untraced and once traced and reports per-layer metrics.  The last
line of standard output is one JSON object; the lines before it are a
readable report, and the full results (environment, quality metrics,
exception types, spans) go to ``perfbench/results/``.

sonolink is imported from ``src/`` of the checkout this file sits in; the
run stops with an error if that import fails or resolves elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("sweep", "long_recording", "modem")
BLAS_THREADS = 1  # fixed so timings do not depend on the machine's core count
SETUP_SAMPLES = 3  # this process plus two fresh ones

END_TO_END_UNITS = {"setup_s": "s", "item_ms_p50": "ms", "audio_s_per_s": "s/s",
                    "peak_rss_mb": "MB"}


def pin_environment() -> None:
    """Pin BLAS threads and put the checkout's src/ first; before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(ROOT / "src"))


def setup_sample(name: str) -> float:
    """Seconds to import sonolink and make each profile's first encode and decode.

    The first call builds the modem's lazily cached tone bank and DTFT tables.
    """
    started = time.perf_counter()
    import workloads  # imports sonolink
    from sonolink.modem import Packet, decode_packet, encode_packet

    for profile, fs in workloads.WORKLOADS[name].profiles:
        decode_packet(encode_packet(Packet(b"\x00"), profile, fs), profile)
    elapsed = time.perf_counter() - started

    import sonolink

    if Path(sonolink.__file__).resolve().parent != ROOT / "src" / "sonolink":
        raise SystemExit(f"sonolink resolved to {sonolink.__file__}, not this checkout's src/")
    return elapsed


def setup_seconds(name: str, first: float) -> tuple[float, list[float]]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# the closed loop


class Run:
    """Items run one at a time; outcomes, item times and raised exceptions."""

    def __init__(self):
        self.outcomes = []
        self.times: list[float] = []
        self.exceptions: list[dict] = []

    def item(self, workload, item, tr) -> None:
        from workloads import Outcome

        started = time.perf_counter()
        try:
            outcome = workload.run(item, tr)
        except Exception as exc:  # a layer raised: a failed op, typed, and the run goes on
            outcome = Outcome(error=type(exc).__name__)
            self.exceptions.append({"item": len(self.outcomes), "type": type(exc).__name__,
                                    "traceback": traceback.format_exc()})
        self.times.append(time.perf_counter() - started)
        self.outcomes.append(outcome)


def build(name: str, seed: int, traced: bool, tr):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.LongRecording:
        return cls(seed, cls.trace_rounds if traced else cls.quality_rounds, tr)
    return cls(seed)


def planned_rounds(workload, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` at the workload's nominal item time.

    The item set is fixed by the seed and ``seconds`` alone, never by how
    fast this run goes, so two runs with the same arguments attempt, and
    fail, exactly the same items.  It always covers the quality set.
    """
    return max(workload.quality_rounds, round(seconds / (workload.item_s * workload.round_size)))


def timed_run(name: str, seed: int, seconds: float) -> tuple[Run, int, float]:
    """The planned rounds, untraced; also the wall seconds they took."""
    from spans import NullTracer

    tr = NullTracer()
    workload = build(name, seed, False, tr)
    Run().item(workload, workload.round(0, tr)[0], tr)  # warm-up, untimed
    run = Run()
    started = time.perf_counter()
    for r in range(planned_rounds(workload, seconds)):
        for item in workload.round(r, tr):
            run.item(workload, item, tr)
    return run, workload.quality_rounds * workload.round_size, time.perf_counter() - started


def traced_run(name: str, seed: int):
    """The fixed trace item set untraced, then traced; returns both runs and the tracer."""
    from spans import NullTracer, Tracer
    from workloads import Outcome, probe_unreached

    tr = Tracer()
    workload = build(name, seed, True, tr)
    items = [item for r in range(workload.trace_rounds) for item in workload.round(r, tr)]

    Run().item(workload, items[0], NullTracer())  # warm-up, untimed
    plain = Run()
    for item in items:
        plain.item(workload, item, NullTracer())

    traced = Run()
    splits = []
    for i, item in enumerate(items):
        tr.item = i
        index = len(tr.spans)
        with tr.span("item"):
            traced.item(workload, item, tr)
        splits.append(tr.item_split(index))
    tr.item = None

    probe_outcome = Outcome()
    probe_unreached(tr, *workload.probe_signals(items[0]), probe_outcome)
    return plain, traced, splits, tr, probe_outcome


# ---------------------------------------------------------------------------
# metrics


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def quality(outcomes) -> dict:
    """Seed-determined quality over a fixed item set."""
    n = len(outcomes)
    after = [o.after_ok for o in outcomes if o.after_ok is not None]
    return {
        "items": n,
        "decode_rate_before_pct": 100.0 * sum(o.before_ok for o in outcomes) / n,
        "decode_rate_after_pct": 100.0 * sum(after) / len(after) if after else None,
        "rt60_mae_s": _mean(o.rt60_error for o in outcomes),
        "lsd_after_db": _mean(o.lsd_after for o in outcomes),
    }


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "item_ms_p50": 1e3 * statistics.median(run.times),
        "audio_s_per_s": sum(o.audio_s for o in run.outcomes) / sum(run.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# Unit of every per-layer metric.  Counts are per item of the traced set;
# perfbench/README.md says what each ratio is taken over.
PER_LAYER_UNITS = {
    "core.stft.ms": "ms", "core.stft.calls": "count/item", "core.stft.frames": "count/item",
    "core.stft.bytes_computed": "B/item", "core.istft.ms": "ms",
    "dereverb.dereverberate.ms": "ms", "dereverb.reverberant_psd.ms": "ms",
    "dereverb.spectral_gain.ms": "ms", "dereverb.dereverberate.rt60_fallback": "frac",
    "dereverb.dereverberate.mean_gain": "ratio",
    "rt60.estimate_rt60.ms": "ms", "rt60.estimate_rt60.bands_used": "count",
    "rt60.estimate_rt60.failures": "frac",
    "modem.detect_preamble.ms": "ms", "modem.detect_preamble.windows": "count/item",
    "modem.detect_preamble.candidates": "count",
    "modem.decode_packet.ms": "ms", "modem.decode_packet.ok_frac": "frac",
    "modem.decode_packet.candidate_rank": "count",
    "modem.decode_packet.fail.no-preamble": "frac",
    "modem.decode_packet.fail.length-symbol-invalid": "frac",
    "modem.decode_packet.fail.fec-failure": "frac",
    "modem.decode_packet.wrong_payload": "frac",
    "modem.decode_packet.corrected_errors": "count", "modem.decode_packet.erasures_used": "count",
    "rs.rs_decode.ms": "ms", "modem.encode_packet.ms": "ms", "simulate.apply_channel.ms": "ms",
    "metrics.lsd.ms": "ms", "metrics.rr.ms": "ms",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac",
}


def per_layer(tr, plain: Run, traced: Run, splits) -> dict:
    c = tr.counts
    n_items = len(traced.outcomes)

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    out = {name: tr.median_ms(name[:-3]) for name in PER_LAYER_UNITS if name.endswith(".ms")}
    for name in ("core.stft.calls", "core.stft.frames", "core.stft.bytes_computed",
                 "modem.detect_preamble.windows"):
        out[name] = c[name] / n_items
    out["dereverb.dereverberate.rt60_fallback"] = ratio(
        "dereverb.dereverberate.rt60_fallback", "dereverb.dereverberate.calls")
    out["dereverb.dereverberate.mean_gain"] = ratio(
        "dereverb.dereverberate.mean_gain", "dereverb.dereverberate.calls")
    estimates_ok = c["rt60.estimate_rt60.calls"] - c["rt60.estimate_rt60.failures"]
    out["rt60.estimate_rt60.bands_used"] = (
        c["rt60.estimate_rt60.bands_used"] / estimates_ok if estimates_ok else 0.0)
    out["rt60.estimate_rt60.failures"] = ratio("rt60.estimate_rt60.failures", "rt60.estimate_rt60.calls")
    out["modem.detect_preamble.candidates"] = ratio(
        "modem.detect_preamble.candidates", "modem.detect_preamble.calls")
    out["modem.decode_packet.ok_frac"] = ratio("modem.decode_packet.ok", "modem.decode_packet.calls")
    for name in ("candidate_rank", "corrected_errors", "erasures_used"):
        out[f"modem.decode_packet.{name}"] = ratio(f"modem.decode_packet.{name}", "modem.decode_packet.ok")
    for name in ("fail.no-preamble", "fail.length-symbol-invalid", "fail.fec-failure", "wrong_payload"):
        out[f"modem.decode_packet.{name}"] = ratio(f"modem.decode_packet.{name}", "modem.decode_packet.calls")

    traced_item = [wall - probe for wall, probe, _ in splits]
    out["trace.overhead_frac"] = statistics.median(traced_item) / statistics.median(plain.times) - 1.0
    out["trace.unattributed_frac"] = (
        sum(wall - probe - attributed for wall, probe, attributed in splits) / sum(traced_item))
    return {name: out[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# reporting


def _problems(outcomes) -> list[str]:
    return sorted({p for o in outcomes for p in o.problems})


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(args) -> int:
    first_setup = setup_sample(args.workload)
    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"# sonolink benchmark: workload={args.workload} seed={args.seed} trace={args.trace}",
             "# environment: " + json.dumps(env, sort_keys=True)]

    if args.trace:
        plain, run, splits, tr, probe_outcome = traced_run(args.workload, args.seed)
        problems = _problems(plain.outcomes + run.outcomes + [probe_outcome])
        if [o.fingerprint() for o in plain.outcomes] != [o.fingerprint() for o in run.outcomes]:
            problems.append("traced and untraced passes over the same items disagree")
        metrics = per_layer(tr, plain, run, splits)
        units = PER_LAYER_UNITS
        tr.write(RESULTS / f"spans-{stem}.json")
        lines.append(f"# traced items: {len(run.outcomes)} (same items untraced first); "
                     f"{len(tr.spans)} spans written to perfbench/results/spans-{stem}.json")
        unreached = sorted({s.name for s in tr.spans if s.item is None and s.probe})
        if unreached:
            lines.append("# probed once outside the items (not on this workload's path): "
                         + ", ".join(unreached))
        extra = {}
    else:
        setup_s, setup_all = setup_seconds(args.workload, first_setup)
        run, quality_items, elapsed = timed_run(args.workload, args.seed, args.seconds)
        problems = _problems(run.outcomes)
        metrics = end_to_end(run, setup_s)
        units = END_TO_END_UNITS
        n = len(run.times)
        extra = {
            "items": n,
            "elapsed_s": elapsed,
            "item_ms": [1e3 * t for t in run.times],
            "setup_samples_s": setup_all,
            "failed_ops_frac": sum(o.failed for o in run.outcomes) / n,
            "wrong_payloads": sum(o.wrong_payload for o in run.outcomes),
            "item_ms_p90": 1e3 * statistics.quantiles(run.times, n=10)[-1] if n >= 100 else None,
            "quality": quality(run.outcomes[:quality_items]),
        }
        lines.append(f"# items timed: {n} (fixed by seed and --seconds) in {elapsed:.1f} s; "
                     f"item_ms_p50 is the median of {n} items; "
                     + (f"item_ms_p90 {extra['item_ms_p90']:.6g} ms over {n} items"
                        if n >= 100 else "item_ms_p90 not reported (fewer than 100 items)"))
        lines.append(f"# setup_s is the median of {len(setup_all)} fresh imports: "
                     + ", ".join(f"{s:.3f}" for s in setup_all))
        q = extra["quality"]
        lines.append(f"# quality over the first {q['items']} items (seed-determined):")
        for key, unit in (("decode_rate_before_pct", "%"), ("decode_rate_after_pct", "%"),
                          ("rt60_mae_s", "s"), ("lsd_after_db", "dB")):
            lines.append(f"{key:>28} {_fmt(q[key]):>12} {unit}")
        lines.append(f"{'failed_ops_frac':>28} {_fmt(extra['failed_ops_frac']):>12} frac  "
                     f"({extra['wrong_payloads']} wrong payloads, exceptions "
                     f"{json.dumps(Counter(e['type'] for e in run.exceptions))}, over {n} items)")

    failed = sum(o.failed for o in run.outcomes)
    lines.append("# metrics:")
    lines.extend(f"{name:>28} {_fmt(value):>12} {units[name]}" for name, value in metrics.items())
    if problems:
        lines.append("# CHECKS FAILED: " + "; ".join(problems))
    print("\n".join(lines))

    result = {"correct": not problems, "attempted": len(run.outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({**result, "environment": env, "problems": problems,
                   "exceptions": run.exceptions, **extra}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is that workload's own."""
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name} failed with exit code {proc.returncode}")
            return proc.returncode
        print(proc.stdout.rstrip("\n"))
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()),
                      "workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(setup_sample(args.workload))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
