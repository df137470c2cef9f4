"""scripts/sweep_pairs.py: the summary, the digest check and the run order on
stub runs, and one run of a stub checkout's CLI."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))  # the script imports bench_pairs from beside it
spec = importlib.util.spec_from_file_location("sweep_pairs", SCRIPTS / "sweep_pairs.py")
sweep_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_pairs)

DIGESTS = {"report_json_sha256": "aa", "report_csv_sha256": "bb"}


def _runs(base, change, threads=1):
    return [{"threads": threads, "pair": i, "side": side, "seconds": s, **DIGESTS}
            for i, (b, c) in enumerate(zip(base, change))
            for side, s in (("base", b), ("change", c))]


def test_a_faster_change_wins_its_pairs():
    out = sweep_pairs.summarise(_runs([20.0, 22.0, 21.0], [18.0, 19.0, 23.0]), 1)
    assert out["pairs"] == 3
    assert (out["change_wins"], out["base_wins"]) == (2, 1)
    assert out["base"]["median"] == 21.0 and out["change"]["median"] == 19.0
    assert out["change_vs_base"] == pytest.approx(19.0 / 21.0 - 1.0)
    assert out["no_slower"]


@pytest.mark.parametrize("factor, no_slower", [(1.04, True), (1.05, True), (1.06, False)])
def test_no_slower_allows_the_tolerance(factor, no_slower):
    base = [20.0, 20.0, 20.0]
    out = sweep_pairs.summarise(_runs(base, [v * factor for v in base], threads=2), 2)
    assert out["no_slower"] is no_slower


@pytest.mark.parametrize("base, change, resolved", [
    # the base's quartiles 20.0 and 21.0: a spread of 5% of its median 20.0
    ([20.0, 20.0, 20.0, 21.0, 21.0], [20.0] * 5, True),
    # a spread of 18% of the median at a 5% tolerance, as in BENCH_22.json's 1-thread sweep
    ([28.7, 28.7, 31.0, 34.3, 34.3], [30.0, 31.0, 31.5, 32.0, 35.0], False),
    # as wide, but every change run is faster than every base run (and the
    # base drifts from neither half of the pairs to the other)
    ([28.7, 34.3, 31.0, 28.7, 34.3], [20.0, 21.0, 22.0, 23.0, 28.0], True),
    # one change run ties the fastest base run
    ([28.7, 28.7, 31.0, 34.3, 34.3], [20.0, 21.0, 22.0, 23.0, 28.7], False),
    # a clean sweep again, but the base climbs 19.5% from the earlier half
    # of the pairs to the later one
    ([28.7, 28.7, 31.0, 34.3, 34.3], [20.0, 21.0, 22.0, 23.0, 28.0], False),
])
def test_resolved_needs_a_narrow_base_or_a_clean_sweep(base, change, resolved):
    out = sweep_pairs.summarise(_runs(base, change), 1)
    assert out["resolved"] is resolved


@pytest.mark.parametrize("base, drift", [
    ([10.0, 10.0, 99.0, 11.0, 11.0], 0.1),  # the middle run counts for neither half
    ([10.0, 12.0, 11.0, 13.0], 12.0 / 11.0 - 1.0),
    ([10.0, 9.0], -0.1),
    ([10.0], None),
], ids=["five runs", "four runs", "two runs", "one run"])
def test_base_drift_is_the_later_half_against_the_earlier(base, drift):
    got = sweep_pairs.summarise(_runs(base, base), 1)["base_drift"]
    assert got == (None if drift is None else pytest.approx(drift))


@pytest.mark.parametrize("base, resolved", [
    # every change run is faster, but the base's median moved 10% from the
    # earlier pairs to the later, more than the 5% tolerance
    ([20.0, 20.0, 20.0, 22.0, 22.0], False),
    ([22.0, 22.0, 20.0, 20.0, 20.0], False),
    # the same runs in an order that does not drift
    ([20.0, 22.0, 20.0, 20.0, 22.0], True),
    # a drift of the tolerance itself is allowed
    ([20.0, 20.0, 20.0, 21.0, 21.0], True),
])
def test_a_drifting_base_leaves_the_series_unresolved(base, resolved):
    out = sweep_pairs.summarise(_runs(base, [15.0] * 5), 1)
    assert out["change_wins"] == 5 and out["resolved"] is resolved


def test_only_complete_pairs_of_one_thread_count_count():
    runs = _runs([20.0, 20.0], [10.0, 10.0], threads=1) + _runs([5.0], [50.0], threads=2)
    runs.append({"threads": 1, "pair": 7, "side": "base", "seconds": 1.0, **DIGESTS})
    out = sweep_pairs.summarise(runs, 1)
    assert out["pairs"] == 2 and out["change"]["median"] == 10.0


def test_digests_are_the_distinct_report_pairs():
    runs = _runs([1.0], [1.0])
    assert sweep_pairs.digests(runs) == [("aa", "bb")]
    runs[1]["report_csv_sha256"] = "cc"
    assert sweep_pairs.digests(runs) == [("aa", "bb"), ("aa", "cc")]


def _stub_main(monkeypatch, tmp_path, csv_digest=lambda side: "bb"):
    calls = []

    def run_once(checkout, threads):
        side = "base" if checkout == Path("B") else "change"
        calls.append((side, threads))
        return {"seconds": 10.0, "report_json_sha256": "aa",
                "report_csv_sha256": csv_digest(side)}

    monkeypatch.setattr(sweep_pairs, "run_once", run_once)
    runs, out = tmp_path / "runs.jsonl", tmp_path / "out.json"
    sweep_pairs.main(["--base", "B", "--change", "C", "--pairs", "2",
                      "--runs", str(runs), "--out", str(out)])
    return calls, runs, out


def test_main_alternates_the_first_side_and_resumes(monkeypatch, tmp_path):
    calls, runs, out = _stub_main(monkeypatch, tmp_path)
    assert calls == [("base", 1), ("change", 1), ("base", 2), ("change", 2),
                     ("change", 1), ("base", 1), ("change", 2), ("base", 2)]
    summary = json.loads(out.read_text())
    assert summary["digests_equal"] and set(summary["threads"]) == {"1", "2"}
    assert all(s["pairs"] == 2 for s in summary["threads"].values())
    assert [r["ran_first"] for r in summary["runs"]] == [True, False] * 4
    # every run is in the runs file, so a second call repeats none of them
    calls, _, _ = _stub_main(monkeypatch, tmp_path)
    assert calls == []


def test_main_refuses_runs_that_wrote_different_reports(monkeypatch, tmp_path):
    with pytest.raises(SystemExit, match="2 different reports"):
        _stub_main(monkeypatch, tmp_path, csv_digest=lambda side: side)
    assert not json.loads((tmp_path / "out.json").read_text())["digests_equal"]


STUB_CLI = '''
import sys
from pathlib import Path

out = Path(sys.argv[sys.argv.index("-o") + 1])
(out / "report.json").write_text("threads " + sys.argv[sys.argv.index("--threads") + 1])
(out / "report.csv").write_text("csv")
'''


def test_a_run_times_the_checkouts_cli_and_hashes_its_reports(tmp_path):
    package = tmp_path / "src" / "sonolink"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI)
    run = sweep_pairs.run_once(tmp_path, 2)
    assert run["report_json_sha256"] == hashlib.sha256(b"threads 2").hexdigest()
    assert run["report_csv_sha256"] == hashlib.sha256(b"csv").hexdigest()
    assert run["seconds"] > 0
