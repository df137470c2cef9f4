"""Benchmark harness: determinism, aggregation, report files."""

import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sonolink import bench
from sonolink.bench import (
    CSV_COLUMNS,
    BenchConfig,
    BenchReport,
    RirRow,
    run_benchmark,
    sweep_rooms,
    write_report,
)
from sonolink.errors import InvalidArgumentError, MetricError
from sonolink.simulate import CorpusEntry, RirSpec, save_rir_corpus, synth_rir

# Small but real: two reverberation times, two rooms each, one packet per
# room, at a low rate so the whole sweep stays fast.
TINY = BenchConfig(
    profile="audible",
    sample_rate=22050,
    rt60_values=(0.4, 0.8),
    rirs_per_rt=2,
    packets_per_rir=1,
    payload_bytes=2,
    seed=0,
    threads=1,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_benchmark(TINY)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestConfig:
    def test_unknown_profile(self):
        with pytest.raises(InvalidArgumentError):
            BenchConfig(profile="shortwave")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"packets_per_rir": 0}, "packets_per_rir"),
            ({"rirs_per_rt": 0}, "rirs_per_rt"),
            ({"rt60_values": ()}, "non-empty"),
            ({"rt60_values": (0.5, -1.0)}, "positive"),
            ({"payload_bytes": 0}, "payload_bytes"),
            ({"payload_bytes": 17}, "payload_bytes"),
            ({"direct_gain": 0.0}, "direct_gain"),
            ({"dereverb": "sometimes"}, "dereverb"),
            ({"threads": 0}, "threads"),
            ({"snr_db": float("nan")}, "snr_db"),
            ({"dereverb": "on"}, "dereverb"),
            ({"sample_rate": 0}, "sample_rate"),
            ({"sample_rate": -44100}, "sample_rate"),
            ({"sample_rate": 44100.0}, "sample_rate"),
            ({"sample_rate": 16000}, "Nyquist"),
            ({"profile": "ultrasonic", "sample_rate": 32000}, "Nyquist"),
            ({"packets_per_rir": 1.5}, "packets_per_rir"),
            ({"rirs_per_rt": 1.5}, "rirs_per_rt"),
            ({"payload_bytes": 2.5}, "payload_bytes"),
            ({"threads": 1.5}, "threads"),
            ({"seed": 1.5}, "seed"),
            ({"snr_db": "20"}, "snr_db"),
            ({"direct_gain": "0.7"}, "direct_gain"),
            ({"rt60_values": ("1.0",)}, "rt60_values"),
            ({"rt60_values": 1.0}, "rt60_values"),
            ({"profile": None}, "profile"),
            ({"seed": -1}, "seed"),
            ({"sample_rate": True}, "sample_rate must be a positive integer"),
            ({"packets_per_rir": True}, "packets_per_rir must be an integer, got True"),
            ({"seed": False}, "seed must be an integer, got False"),
            ({"rt60_values": (True,)}, "rt60_values must be a number, got True"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(InvalidArgumentError, match=match):
            BenchConfig(**kwargs)

    def test_numpy_scalars_give_the_report_of_python_numbers(self, tmp_path):
        python = dataclasses.replace(TINY, rt60_values=(0.5,), rirs_per_rt=1, seed=3, snr_db=20.0)
        numpy = dataclasses.replace(
            python, seed=np.int64(3), packets_per_rir=np.int64(1), sample_rate=np.int64(22050),
            snr_db=np.float32(20.0), rt60_values=(np.float32(0.5),),
        )
        assert [type(getattr(numpy, f.name)) for f in dataclasses.fields(numpy)] == [
            type(getattr(python, f.name)) for f in dataclasses.fields(python)
        ]
        assert type(numpy.rt60_values[0]) is float
        reports = []
        for name, cfg in (("python", python), ("numpy", numpy)):
            paths = write_report(run_benchmark(cfg), tmp_path / name)
            reports.append([paths[kind].read_bytes() for kind in ("json", "csv")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name", ["Audible", "AUDIBLE"])
    def test_profile_is_stored_by_its_canonical_name(self, name):
        cfg = BenchConfig(profile=name)
        assert cfg.profile == "audible"
        assert cfg == BenchConfig()
        assert json.dumps(cfg.serializable()) == json.dumps(BenchConfig().serializable())

    def test_serializable_omits_execution_details(self):
        cfg = dataclasses.replace(TINY, threads=4)
        blob = cfg.serializable()
        assert "threads" not in blob
        assert blob["direct_gain"] == 0.7
        assert blob["rt60_values"] == [0.4, 0.8]
        json.dumps(blob)  # must be JSON-ready as-is


# ---------------------------------------------------------------------------
# synthetic sweep
# ---------------------------------------------------------------------------


class TestSyntheticRun:
    def test_one_row_per_rir(self, tiny_report):
        assert len(tiny_report.rows) == 4
        assert [r.rir_id for r in tiny_report.rows] == [
            "rt0.4_r00",
            "rt0.4_r01",
            "rt0.8_r00",
            "rt0.8_r01",
        ]
        assert tiny_report.errors == []
        assert tiny_report.schema_version == 1

    def test_rates_are_percentages(self, tiny_report):
        for row in tiny_report.rows:
            assert 0.0 <= row.decode_rate_before <= 100.0
            assert 0.0 <= row.decode_rate_after <= 100.0

    def test_rows_carry_truth_and_estimates(self, tiny_report):
        assert [r.true_rt60 for r in tiny_report.rows] == [0.4, 0.4, 0.8, 0.8]
        assert any(r.estimated_rt60 is not None for r in tiny_report.rows)

    def test_aggregates(self, tiny_report):
        agg = tiny_report.aggregates
        assert agg["row_count"] == 4
        assert set(agg["by_rt60"]) == {"0.4", "0.8"}
        assert agg["by_rt60"]["0.4"]["rows"] == 2
        assert agg["rt60_estimates"] <= 4
        if agg["lsd_improved_fraction"] is not None:
            assert 0.0 <= agg["lsd_improved_fraction"] <= 1.0

    def test_deterministic_across_runs_and_threads(self, tiny_report):
        again = run_benchmark(TINY)
        threaded = run_benchmark(dataclasses.replace(TINY, threads=2))
        base = json.dumps(dataclasses.asdict(tiny_report), sort_keys=True)
        assert json.dumps(dataclasses.asdict(again), sort_keys=True) == base
        assert json.dumps(dataclasses.asdict(threaded), sort_keys=True) == base

    def test_bug_in_a_layer_is_an_error_not_a_failure(self, monkeypatch):
        # a programming error must surface with its type, not hide in the
        # failure count of an otherwise plausible row
        def broken(*args):
            raise ValueError("cannot reshape array")

        monkeypatch.setattr("sonolink.bench.lsd", broken)
        report = run_benchmark(dataclasses.replace(TINY, rt60_values=(0.4,), rirs_per_rt=1))
        assert report.rows == []
        assert report.errors == [
            {"rir_id": "rt0.4_r00", "error": "cannot reshape array", "type": "ValueError"}
        ]

    def test_domain_error_in_a_layer_counts_as_failure(self, monkeypatch):
        def undefined(*args):
            raise MetricError("metric undefined")

        monkeypatch.setattr("sonolink.bench.lsd", undefined)
        report = run_benchmark(dataclasses.replace(TINY, rt60_values=(0.4,), rirs_per_rt=1))
        assert report.errors == []
        (row,) = report.rows
        assert row.failures == TINY.packets_per_rir

    def test_an_snr_past_float64_counts_as_failures(self):
        report = run_benchmark(dataclasses.replace(TINY, snr_db=-4000.0))
        assert report.errors == []
        assert [row.failures for row in report.rows] == [TINY.packets_per_rir] * 4

    def test_failed_packet_leaves_no_partial_results(self, monkeypatch):
        # the packet decodes before and after dereverb, then rr raises: its
        # hits and LSD values must not stay in the row beside a failure
        def undefined(*args):
            raise MetricError("metric undefined")

        monkeypatch.setattr("sonolink.bench.rr", undefined)
        report = run_benchmark(dataclasses.replace(TINY, rt60_values=(0.4,), rirs_per_rt=1))
        (row,) = report.rows
        assert row.failures == 1
        assert row.decode_rate_before == 0.0
        assert row.decode_rate_after == 0.0
        assert row.mean_lsd_before is None
        assert row.mean_lsd_after is None
        assert row.mean_rr is None

    def test_room_that_cannot_be_synthesised_raises(self):
        with pytest.raises(InvalidArgumentError, match="under 2 samples"):
            run_benchmark(dataclasses.replace(TINY, rt60_values=(1e-5,), rirs_per_rt=1))

    def test_sweep_rooms_reject_a_negative_seed(self):
        with pytest.raises(InvalidArgumentError, match="seed"):
            sweep_rooms((0.4,), 1, 0.7, -1, 22050)

    def test_thread_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("SONOLINK_THREADS", "abc")
        report = run_benchmark(
            dataclasses.replace(TINY, rt60_values=(0.4,), rirs_per_rt=1, threads=None)
        )
        assert len(report.rows) == 1 and report.errors == []

    @pytest.mark.parametrize("affinity, cpu_count, workers", [
        ({0}, 2, 1),  # taskset -c 0 on a 2-CPU machine
        (set(range(12)), 12, 8),
        (None, 3, 3),  # a platform without sched_getaffinity
    ])
    def test_default_workers_are_the_cpus_this_process_may_use(
            self, monkeypatch, capsys, affinity, cpu_count, workers):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(bench, "ThreadPoolExecutor", Recording)
        report = run_benchmark(
            dataclasses.replace(TINY, rt60_values=(0.4,), rirs_per_rt=1, threads=None)
        )
        assert f"workers={workers} " in capsys.readouterr().err and len(report.rows) == 1
        # one worker runs the rooms on the calling thread, with no pool
        assert sizes == ([workers] if workers > 1 else [])

    def test_dereverb_off_leaves_after_columns_empty(self):
        cfg = dataclasses.replace(
            TINY, rt60_values=(0.4,), rirs_per_rt=1, dereverb="off"
        )
        report = run_benchmark(cfg)
        (row,) = report.rows
        assert row.decode_rate_before is not None
        assert row.decode_rate_after is None
        assert row.mean_lsd_after is None
        assert row.mean_rr is None
        assert report.aggregates["lsd_improved_fraction"] is None


# ---------------------------------------------------------------------------
# corpus mode
# ---------------------------------------------------------------------------


def _write_corpus(directory, include_broken=False):
    entries = [
        CorpusEntry(
            "roomA.wav", synth_rir(RirSpec(rt60=0.3, seed=1), 22050), rt60=0.3
        ),
        CorpusEntry(
            "roomB.wav", synth_rir(RirSpec(rt60=0.5, seed=2), 22050), rt60=0.5
        ),
        CorpusEntry("field.wav", synth_rir(RirSpec(rt60=0.4, seed=3), 22050)),
    ]
    save_rir_corpus(entries, directory)
    if include_broken:
        (directory / "oops.wav").write_bytes(b"\x00\x01garbage")


class TestCorpusMode:
    def test_labeled_and_unlabeled_rows(self, tmp_path):
        _write_corpus(tmp_path)
        cfg = dataclasses.replace(
            TINY, corpus_dir=str(tmp_path), rt60_values=(), dereverb="off"
        )
        report = run_benchmark(cfg)
        by_id = {r.rir_id: r for r in report.rows}
        assert set(by_id) == {"roomA.wav", "roomB.wav", "field.wav"}
        assert by_id["roomA.wav"].true_rt60 == 0.3
        assert by_id["field.wav"].true_rt60 is None
        assert "unlabeled" in report.aggregates["by_rt60"]
        assert report.aggregates["by_rt60"]["unlabeled"]["rows"] == 1

    def test_malformed_file_does_not_abort(self, tmp_path):
        _write_corpus(tmp_path, include_broken=True)
        cfg = dataclasses.replace(
            TINY, corpus_dir=str(tmp_path), rt60_values=(), dereverb="off"
        )
        with pytest.warns(UserWarning, match="skipping oops.wav"):
            report = run_benchmark(cfg)
        assert len(report.rows) == 3

    def test_empty_corpus_yields_empty_report(self, tmp_path):
        cfg = dataclasses.replace(TINY, corpus_dir=str(tmp_path), rt60_values=())
        report = run_benchmark(cfg)
        assert report.rows == []
        assert report.aggregates["row_count"] == 0
        assert report.aggregates["decode_rate_before"] is None


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


class TestReportIO:
    def test_json_roundtrip(self, tiny_report, tmp_path):
        paths = write_report(tiny_report, tmp_path)
        assert sorted(paths) == ["csv", "json"]
        assert json.loads(paths["json"].read_text()) == dataclasses.asdict(tiny_report)

    def test_csv_layout(self, tmp_path):
        report = BenchReport(
            config={},
            rows=[
                RirRow(
                    rir_id="x",
                    true_rt60=None,
                    estimated_rt60=0.51239,
                    decode_rate_before=50.0,
                    decode_rate_after=None,
                    mean_lsd_before=1.25,
                    mean_lsd_after=None,
                    mean_rr=None,
                    failures=0,
                )
            ],
            aggregates={},
            errors=[],
        )
        paths = write_report(report, tmp_path)
        lines = paths["csv"].read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "x,,0.5124,50.0000,,1.2500,,,0"
        assert len(lines) == 2
