"""Paired benchmark runs of two checkouts, summarised into a BENCH_<n>.json.

Runs ``perfbench/run.py --workload W --seed S --seconds 30`` in a base
checkout and in a changed one, alternating which side goes first from one
pair to the next, and records each run's end-to-end metrics,
``attempted``/``failed`` counts and minor page faults (those of the
perfbench process and of every process it starts, its set-up probes
included).  The summary records the usable CPU count and the BLAS thread
variables, on which the timings depend, and gives, per workload, each
side's median fault count and, per metric, each side's median and
quartiles, the change's wins counted over pairs (ties count for neither side), whether the gain
rule holds (the change wins at least 9 of 10 pairs and the medians differ
by more than the base's interquartile range), whether the no-regression
rule holds (the change's median is worse than the base's by no more than
the metric's relative bound in BENCHMARK.json), the base's drift (its
median over the later half of the pairs against the earlier half) and
whether the runs resolve that bound at all (the base's interquartile range
is within the bound, or every change run reads better than every base run,
and the base drifted by no more than the bound; otherwise the metric is
unresolved, not unchanged).

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workloads modem,long_recording,sweep --seeds 1-10 \\
        --runs runs.jsonl --out BENCH_2.json

Each run is appended to ``--runs`` as one JSON line as soon as it ends, and
runs already in that file are not repeated, so an interrupted series
resumes where it stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    """The CPUs this process may use (its affinity set where the platform
    has one) and the BLAS thread variables it passes on to its runs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpus": cpus, "environment": {v: os.environ.get(v) for v in BLAS_VARIABLES}}


def end_to_end_metrics(path: Path = BENCHMARK) -> dict[str, dict]:
    """Each end-to-end metric's better direction and regression bound."""
    spec = json.loads(path.read_text())
    return {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in spec["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _child_minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    faults = _child_minor_faults()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    faults = _child_minor_faults() - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "minor_faults": faults,
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:  # a single check pair has no spread
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def resolved(base: list[float], change: list[float], bound: float, sign: float = 1.0) -> bool:
    """Whether the runs resolve a change of ``bound`` times the base's
    median: the base's interquartile range is within it, or every change
    run is better than every base run (``sign`` is 1.0 where lower is
    better, -1.0 where higher is)."""
    b = quartiles(base)
    return (b["q3"] - b["q1"] <= bound * b["median"]
            or max(sign * v for v in change) < min(sign * v for v in base))


def base_drift(base: list[float], tolerance: float) -> tuple[float | None, bool]:
    """The base's median over the later half of its runs, in pair order,
    relative to its median over the earlier half (a middle run counts for
    neither), and whether it moved by no more than ``tolerance`` of the
    earlier; (None, True) for fewer than two runs.  The machine can drift
    between series by more than one series spreads, and a base that drifts
    within a series shows it."""
    half = len(base) // 2
    if not half:
        return None, True
    early, late = statistics.median(base[:half]), statistics.median(base[-half:])
    return late / early - 1.0, abs(late - early) <= tolerance * early


def paired_runs(runs_file: Path, pairs: list[tuple[int, dict]], run) -> list[dict]:
    """Both sides of every pair, run or read back from ``runs_file``.

    ``pairs`` gives each pair's index and the fields that name it, and the
    side that goes first alternates with the index (base first at even
    ones); ``run(side, fields)`` measures one side.  Each run is appended to
    ``runs_file`` as one JSON line as soon as it ends, and runs already in
    the file are not repeated, so an interrupted series resumes where it
    stopped.  Returns the file's runs of these pairs, in the file's order.
    """
    names = list(pairs[0][1]) if pairs else []

    def key(record: dict) -> tuple:
        return tuple(record.get(name) for name in names)

    runs = []
    if runs_file.exists():
        runs = [json.loads(line) for line in runs_file.read_text().splitlines() if line]
    done = {(key(r), r["side"]) for r in runs}
    for i, fields in pairs:
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            if (key(fields), side) in done:
                continue
            record = {**fields, "side": side, "ran_first": (side == "base") == (i % 2 == 0),
                      **run(side, fields)}
            with open(runs_file, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            runs.append(record)
    wanted = {key(fields) for _, fields in pairs}
    return [r for r in runs if key(r) in wanted]


def complete_pairs(runs: list[dict], pair: str, **match) -> list[dict]:
    """The {side: run} pairs, in order of their ``pair`` field, of the runs
    whose fields equal ``match``; a pair without both sides is left out."""
    pairs: dict = {}
    for run in runs:
        if all(run[name] == value for name, value in match.items()):
            pairs.setdefault(run[pair], {})[run["side"]] = run
    return [p for _, p in sorted(pairs.items()) if len(p) == 2]


def _median_faults(pairs, side: str) -> float | None:
    """The median fault count of one side's runs; None if none has one
    (runs recorded before faults were counted)."""
    faults = [p[side]["minor_faults"] for p in pairs if "minor_faults" in p[side]]
    return statistics.median(faults) if faults else None


def summarise(runs: list[dict], workload: str, metrics: dict[str, dict]) -> dict:
    pairs = complete_pairs(runs, "seed", workload=workload)
    out: dict = {
        "pairs": len(pairs),
        "counts_identical": all(
            (p["base"]["attempted"], p["base"]["failed"])
            == (p["change"]["attempted"], p["change"]["failed"])
            for p in pairs
        ),
        "all_correct": all(p[s]["correct"] for p in pairs for s in p),
        "minor_faults_median": {side: _median_faults(pairs, side)
                                 for side in ("base", "change")},
        "metrics": {},
    }
    for name, rule in metrics.items():
        better = rule["better"]
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        losses = sum(sign * (b - c) < 0 for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        drift, steady = base_drift(base, rule["bound"])
        out["metrics"][name] = {
            "better": better,
            "base": b,
            "change": c,
            "change_vs_base": c["median"] / b["median"] - 1.0,
            "change_wins": wins,
            "base_wins": losses,
            "gain_rule_met": wins >= 0.9 * len(pairs)
            and sign * (b["median"] - c["median"]) > b["q3"] - b["q1"],
            "bound": rule["bound"],
            "within_bound": sign * (c["median"] - b["median"]) <= rule["bound"] * b["median"],
            "base_drift": drift,
            "resolved": resolved(base, change, rule["bound"], sign) and steady,
        }
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    ap.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    ap.add_argument("--workloads", default="modem,long_recording,sweep")
    ap.add_argument("--seeds", default="1-10", help="one pair per seed, e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--runs", type=Path, required=True, help="JSON-lines file of finished runs")
    ap.add_argument("--out", type=Path, required=True, help="summary file to write")
    args = ap.parse_args(argv)

    metrics = end_to_end_metrics()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    checkouts = {"base": args.base, "change": args.change}
    pairs = [(i, {"workload": workload, "seed": seed})
             for workload in workloads for i, seed in enumerate(seeds)]
    runs = paired_runs(args.runs, pairs, lambda side, f: run_once(
        checkouts[side], f["workload"], f["seed"], args.seconds))
    summary = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds}",
        **machine(),
        "seeds": seeds,
        "workloads": {w: summarise(runs, w, metrics) for w in workloads},
        "runs": runs,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
