"""Paired wall-time runs of the CLI acceptance sweep in two checkouts.

Runs ``sonolink bench --packets 2 --threads T -o DIR`` (5 RT60s × 20 rooms
× 2 packets, seed 0) with each checkout's ``src/`` first on the path, for
every T in ``--threads``, in a base checkout and in a changed one. Which
side goes first alternates from one pair to the next. Each run records the
process's wall time and the sha256 of the ``report.json`` and
``report.csv`` it wrote. The summary gives, per thread count, each side's
median and quartiles, the change's wins counted over pairs, whether the
change's median is within ``TOLERANCE`` of the base's, the base's drift
(its median over the later half of the pairs against the earlier half) and
whether the runs resolve that tolerance at all (the base's interquartile
range is within it, or every change run is faster than every base run, and
the base drifted by no more than it; otherwise ``no_slower`` is
unresolved, not shown). The script exits
non-zero, after writing the summary, if any two runs wrote different
report bytes: a speed change must not move the sweep's figures.

    python3 scripts/sweep_pairs.py --base ../parent --change . \\
        --threads 1,2 --pairs 3 --runs sweep_runs.jsonl --out sweep.json

The environment is passed on as it is, BLAS thread variables included, so
this times what a user's ``sonolink bench`` does; the summary records
those variables.  The CLI sets each of them that is unset to 1 itself, so
a checkout from before that change runs with BLAS's default threads where
a later one runs with one.  Each run is appended to ``--runs`` as one JSON
line as soon as it ends, and runs already in that file are not repeated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import base_drift, complete_pairs, machine, paired_runs, quartiles, resolved

TOLERANCE = 0.05  # the change's median may be this much slower and still count as no slower


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_once(checkout: Path, threads: int) -> dict:
    """One acceptance sweep in ``checkout``: wall seconds and report digests."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    with tempfile.TemporaryDirectory() as out:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sonolink.cli", "bench", "--packets", "2",
             "--threads", str(threads), "-o", out],
            cwd=checkout, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - started
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: sweep failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        return {"seconds": seconds,
                "report_json_sha256": _sha256(Path(out) / "report.json"),
                "report_csv_sha256": _sha256(Path(out) / "report.csv")}


def summarise(runs: list[dict], threads: int) -> dict:
    """Both sides' wall times at one thread count, over the complete pairs."""
    pairs = complete_pairs(runs, "pair", threads=threads)
    base = [p["base"]["seconds"] for p in pairs]
    change = [p["change"]["seconds"] for p in pairs]
    b, c = quartiles(base), quartiles(change)
    drift, steady = base_drift(base, TOLERANCE)
    return {
        "pairs": len(pairs),
        "base": b,
        "change": c,
        "change_vs_base": c["median"] / b["median"] - 1.0,
        "change_wins": sum(x < y for x, y in zip(change, base)),
        "base_wins": sum(x > y for x, y in zip(change, base)),
        "no_slower": c["median"] <= (1.0 + TOLERANCE) * b["median"],
        "base_drift": drift,
        "resolved": resolved(base, change, TOLERANCE) and steady,
    }


def digests(runs: list[dict]) -> list[tuple[str, str]]:
    """The distinct (report.json, report.csv) digest pairs the runs wrote."""
    return sorted({(r["report_json_sha256"], r["report_csv_sha256"]) for r in runs})


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    ap.add_argument("--change", type=Path, required=True, help="checkout measured as the change")
    ap.add_argument("--threads", default="1,2", help="comma-separated --threads values")
    ap.add_argument("--pairs", type=int, default=3, help="pairs of runs per thread count")
    ap.add_argument("--runs", type=Path, required=True, help="JSON-lines file of finished runs")
    ap.add_argument("--out", type=Path, required=True, help="summary file to write")
    args = ap.parse_args(argv)

    thread_counts = [int(t) for t in args.threads.split(",")]
    checkouts = {"base": args.base, "change": args.change}
    pairs = [(i, {"threads": threads, "pair": i})
             for i in range(args.pairs) for threads in thread_counts]
    runs = paired_runs(args.runs, pairs, lambda side, f: run_once(checkouts[side], f["threads"]))
    written = digests(runs)
    summary = {
        "command": "sonolink bench --packets 2 --threads T -o DIR",
        **machine(),
        "tolerance": TOLERANCE,
        "digests": [{"report_json_sha256": j, "report_csv_sha256": c} for j, c in written],
        "digests_equal": len(written) == 1,
        "threads": {str(t): summarise(runs, t) for t in thread_counts},
        "runs": runs,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if len(written) != 1:
        raise SystemExit(f"the runs wrote {len(written)} different reports: {written}")


if __name__ == "__main__":
    main()
