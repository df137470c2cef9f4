"""scripts/bench_pairs.py: the gain and no-regression rules on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RULES = {
    "item_ms_p50": {"better": "lower", "bound": 0.25},
    "audio_s_per_s": {"better": "higher", "bound": 0.25},
}


def _runs(base, change, failed=(0, 0)):
    """One pair per seed from per-seed metric dicts of each side."""
    runs = []
    for seed, (b, c) in enumerate(zip(base, change), start=1):
        for side, metrics, fails in (("base", b, failed[0]), ("change", c, failed[1])):
            runs.append({"workload": "w", "seed": seed, "side": side, "correct": True,
                         "attempted": 10, "failed": fails, "metrics": metrics})
    return runs


def _pairs(base_ms, change_ms):
    return _runs([{"item_ms_p50": v, "audio_s_per_s": 1000.0 / v} for v in base_ms],
                 [{"item_ms_p50": v, "audio_s_per_s": 1000.0 / v} for v in change_ms])


def test_clear_gain_meets_both_rules():
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [v * 0.7 for v in base]
    out = bench_pairs.summarise(_pairs(base, change), "w", RULES)
    assert out["pairs"] == 10 and out["counts_identical"] and out["all_correct"]
    for name in RULES:
        m = out["metrics"][name]
        assert m["change_wins"] == 10 and m["base_wins"] == 0
        assert m["gain_rule_met"] and m["within_bound"] and m["resolved"]
        assert m["bound"] == 0.25
    assert out["metrics"]["item_ms_p50"]["change_vs_base"] == pytest.approx(-0.3)


def test_eight_wins_of_ten_is_no_gain():
    base = [100.0] * 10
    change = [70.0] * 8 + [110.0] * 2
    m = bench_pairs.summarise(_pairs(base, change), "w", RULES)["metrics"]["item_ms_p50"]
    assert m["change_wins"] == 8 and m["base_wins"] == 2
    assert not m["gain_rule_met"]


def test_gain_inside_the_base_spread_is_no_gain():
    base = [80.0, 120.0] * 5  # interquartile range 40
    change = [v - 10.0 for v in base]
    m = bench_pairs.summarise(_pairs(base, change), "w", RULES)["metrics"]["item_ms_p50"]
    assert m["change_wins"] == 10
    assert not m["gain_rule_met"]


@pytest.mark.parametrize("factor, within", [(1.2, True), (1.25, True), (1.3, False)])
def test_no_regression_bound_on_a_lower_is_better_metric(factor, within):
    base = [100.0] * 10
    m = bench_pairs.summarise(_pairs(base, [v * factor for v in base]), "w", RULES)
    assert m["metrics"]["item_ms_p50"]["within_bound"] is within


@pytest.mark.parametrize("factor, within", [(0.8, True), (0.75, True), (0.7, False)])
def test_no_regression_bound_on_a_higher_is_better_metric(factor, within):
    base = [{"item_ms_p50": 100.0, "audio_s_per_s": 10.0}] * 10
    change = [{"item_ms_p50": 100.0, "audio_s_per_s": 10.0 * factor}] * 10
    m = bench_pairs.summarise(_runs(base, change), "w", RULES)
    assert m["metrics"]["audio_s_per_s"]["within_bound"] is within


# interquartile range 30, 30% of the median, with no drift: both halves'
# medians are 100
WIDE_STEADY_BASE = [85.0, 115.0, 85.0, 115.0, 100.0, 115.0, 85.0, 115.0, 85.0, 100.0]


@pytest.mark.parametrize("shift, resolved", [(0.0, False), (-40.0, True)])
def test_base_spread_wider_than_the_bound_is_unresolved(shift, resolved):
    base = WIDE_STEADY_BASE
    out = bench_pairs.summarise(_pairs(base, [v + shift for v in base]), "w", RULES)
    for name in RULES:  # a shift of -40 puts every change run past every base run
        assert out["metrics"][name]["resolved"] is resolved


@pytest.mark.parametrize("base, drift", [
    ([100.0] * 10, 0.0),
    (WIDE_STEADY_BASE, 0.0),
    ([100.0] * 5 + [120.0] * 5, 0.2),
    ([100.0, 100.0, 90.0, 80.0, 80.0], -0.2),  # the middle pair counts for neither half
    ([85.0, 115.0] * 5, 115.0 / 85.0 - 1.0),
])
def test_base_drift_is_the_later_half_against_the_earlier(base, drift):
    out = bench_pairs.summarise(_pairs(base, base), "w", RULES)
    assert out["metrics"]["item_ms_p50"]["base_drift"] == pytest.approx(drift)
    assert out["metrics"]["audio_s_per_s"]["base_drift"] == pytest.approx(1.0 / (1.0 + drift) - 1.0)


@pytest.mark.parametrize("late, resolved", [(125.0, True), (126.0, False), (75.0, True),
                                            (74.0, False)])
def test_a_base_that_drifts_past_the_bound_is_unresolved(late, resolved):
    # every change run beats every base run, which alone would resolve it
    base = [100.0] * 5 + [late] * 5
    out = bench_pairs.summarise(_pairs(base, [50.0] * 10), "w", RULES)
    m = out["metrics"]["item_ms_p50"]
    assert m["base_drift"] == pytest.approx(late / 100.0 - 1.0)
    assert m["resolved"] is resolved


def test_one_pair_has_no_drift():
    m = bench_pairs.summarise(_pairs([100.0], [90.0]), "w", RULES)["metrics"]["item_ms_p50"]
    assert m["base_drift"] is None and m["resolved"]


def test_unpaired_runs_and_changed_counts():
    runs = _pairs([100.0] * 3, [90.0] * 3)
    runs.append({"workload": "w", "seed": 9, "side": "base", "correct": True,
                 "attempted": 10, "failed": 0, "metrics": {}})  # no change side
    assert bench_pairs.summarise(runs, "w", RULES)["pairs"] == 3
    moved = _runs([{"item_ms_p50": 1.0, "audio_s_per_s": 1.0}] * 2,
                  [{"item_ms_p50": 1.0, "audio_s_per_s": 1.0}] * 2, failed=(0, 1))
    assert not bench_pairs.summarise(moved, "w", RULES)["counts_identical"]


def test_rules_come_from_the_benchmark_file():
    rules = bench_pairs.end_to_end_metrics()
    assert set(rules) == {"setup_s", "item_ms_p50", "audio_s_per_s", "peak_rss_mb"}
    assert rules["audio_s_per_s"]["better"] == "higher"
    assert all(0 < r["bound"] < 1 for r in rules.values())


def test_summary_gives_each_sides_median_fault_count():
    runs = _pairs([100.0] * 3, [90.0] * 3)
    for run, faults in zip(runs, [900, 10, 1000, 0, 800, 30]):  # base, change, base, ...
        run["minor_faults"] = faults
    out = bench_pairs.summarise(runs, "w", RULES)
    assert out["minor_faults_median"] == {"base": 900, "change": 10}
    unrecorded = bench_pairs.summarise(_pairs([1.0], [1.0]), "w", RULES)
    assert unrecorded["minor_faults_median"] == {"base": None, "change": None}


STUB_RUN = '''
import json, subprocess, sys

TOUCH = """
import mmap
pages = mmap.mmap(-1, {pages} * mmap.PAGESIZE)
pages.madvise(mmap.MADV_NOHUGEPAGE)
for i in range(0, len(pages), mmap.PAGESIZE):
    pages[i] = 1
"""
exec(TOUCH.format(pages=3000))
subprocess.run([sys.executable, "-c", TOUCH.format(pages=6000)], check=True)  # a set-up probe
print("a readable report line")
print(json.dumps({"correct": True, "attempted": 4, "failed": 1,
                  "metrics": {"item_ms_p50": {"value": 2.5, "unit": "ms"}}}))
'''


def test_a_run_records_the_faults_of_perfbench_and_its_probes(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    run = bench_pairs.run_once(tmp_path, "modem", 1, 30)
    assert run["correct"] and (run["attempted"], run["failed"]) == (4, 1)
    assert run["metrics"] == {"item_ms_p50": 2.5}
    # each touched page faults once; without the probe's the count stays
    # under 3000 plus one interpreter start-up (about 1000-2000)
    assert run["minor_faults"] >= 9000


def test_summary_records_the_cpus_and_blas_settings(monkeypatch, tmp_path):
    # the STFT passes use a second CPU when the process may, so the timings
    # depend on the usable CPU count as well as on BLAS threading
    def run_once(checkout, workload, seed, seconds):
        return {"correct": True, "attempted": 1, "failed": 0, "minor_faults": 0,
                "metrics": {name: 1.0 for name in bench_pairs.end_to_end_metrics()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out.json"
    bench_pairs.main(["--base", "B", "--change", "C", "--workloads", "modem", "--seeds", "1",
                      "--runs", str(tmp_path / "runs.jsonl"), "--out", str(out)])
    summary = json.loads(out.read_text())
    assert summary["cpus"] == 3
    assert summary["environment"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                                      "MKL_NUM_THREADS": None}
    assert summary["workloads"]["modem"]["pairs"] == 1


def test_paired_runs_alternate_resume_and_keep_only_their_pairs(tmp_path):
    calls = []

    def run(side, fields):
        calls.append((side, fields["seed"]))
        return {"value": 1.0}

    runs_file = tmp_path / "runs.jsonl"
    runs_file.write_text(json.dumps({"workload": "other", "seed": 1, "side": "base"}) + "\n")
    pairs = [(i, {"workload": "w", "seed": seed}) for i, seed in enumerate([1, 2])]
    runs = bench_pairs.paired_runs(runs_file, pairs, run)
    assert calls == [("base", 1), ("change", 1), ("change", 2), ("base", 2)]
    assert [(r["seed"], r["side"], r["ran_first"]) for r in runs] == [
        (1, "base", True), (1, "change", False), (2, "change", True), (2, "base", False)]
    # every run is in the file now, so a second call repeats none of them
    assert bench_pairs.paired_runs(runs_file, pairs, run) == runs
    assert len(calls) == 4
