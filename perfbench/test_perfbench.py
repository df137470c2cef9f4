"""Checks of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  The main
check is parity: on a tiny sweep the benchmark's item chain reproduces the
rows ``sonolink.bench.run_benchmark`` reports, so the benchmark times what
``sonolink bench`` computes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
from sonolink.bench import BenchConfig, run_benchmark  # noqa: E402
from sonolink.modem import AUDIBLE, ULTRASONIC, Packet, encode_packet  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import LongRecording, Modem, Outcome, Sweep, _decode  # noqa: E402

# one RT60 value, two rooms, two packets per room
TINY = BenchConfig(
    profile="audible",
    sample_rate=44100,
    rt60_values=(1.2,),
    rirs_per_rt=2,
    packets_per_rir=2,
    payload_bytes=4,
    seed=3,
    dereverb="both",
    threads=1,
)


def _tiny_sweep() -> Sweep:
    sweep = Sweep(TINY.seed, rt60_values=TINY.rt60_values)
    assert (sweep.packets_per_room, sweep.payload_bytes, sweep.fs) == (
        TINY.packets_per_rir, TINY.payload_bytes, TINY.sample_rate)
    return sweep


def _round4(value):
    return None if value is None else round(float(value), 4)


def test_sweep_chain_reproduces_run_benchmark_rows():
    report = run_benchmark(TINY)
    assert len(report.rows) == TINY.rirs_per_rt and not report.errors
    sweep = _tiny_sweep()
    tr = NullTracer()
    for r, row in enumerate(report.rows):  # round r holds room r at the one RT60
        items = sweep.round(r, tr)
        outcomes = [sweep.run(item, tr) for item in items]
        n = len(outcomes)
        assert all(o.error is None and not o.problems for o in outcomes)
        assert row.failures == 0
        assert row.true_rt60 == _round4(items[0][0].rt60)
        assert row.estimated_rt60 == _round4(items[0][0].estimate)
        assert row.decode_rate_before == _round4(100.0 * sum(o.before_ok for o in outcomes) / n)
        assert row.decode_rate_after == _round4(100.0 * sum(o.after_ok for o in outcomes) / n)
        assert row.mean_lsd_before == _round4(np.mean([o.lsd_before for o in outcomes]))
        assert row.mean_lsd_after == _round4(np.mean([o.lsd_after for o in outcomes]))
        assert row.mean_rr == _round4(np.mean([o.rr for o in outcomes]))


def test_traced_items_match_untraced_and_count_the_work():
    sweep = _tiny_sweep()
    items = sweep.round(0, NullTracer())
    plain = [sweep.run(item, NullTracer()) for item in items]
    tr = Tracer()
    traced = [sweep.run(item, tr) for item in items]

    assert [o.fingerprint() for o in plain] == [o.fingerprint() for o in traced]
    assert not [p for o in traced for p in o.problems]  # probes agree with the calls they mirror
    # 3 grids for the metrics and 1 inside dereverberate per signal, plus the
    # first packet's estimate_rt60
    assert tr.counts["core.stft.calls"] == 4 * len(items) + 1
    assert tr.counts["modem.decode_packet.calls"] == 2 * len(items)
    assert {"modem.detect_preamble", "dereverb.spectral_gain", "core.istft",
            "rs.rs_decode"} <= tr.names()
    assert all(s.probe for s in tr.spans if s.name == "dereverb.spectral_gain")


def test_wrong_payload_counts_as_failed_op():
    buf = encode_packet(Packet(b"sent"), AUDIBLE, 44100)
    out = Outcome()
    assert not _decode(NullTracer(), buf, AUDIBLE, b"else", out)
    assert out.wrong_payload and out.failed and out.error is None


class _Raising:
    def run(self, item, tr):
        raise ZeroDivisionError("layer failure")


def test_exception_counts_as_failed_op_with_its_type():
    r = run.Run()
    r.item(_Raising(), None, NullTracer())
    assert r.outcomes[0].failed and r.outcomes[0].error == "ZeroDivisionError"
    assert r.exceptions[0]["type"] == "ZeroDivisionError"
    assert len(r.times) == 1


def test_modem_draws_cover_the_miscorrection_region():
    # an ultrasonic 48 kHz 14-byte packet at RT60 0.5 s and SNR 0 dB decoded
    # to a wrong payload; the draw must keep reaching that corner
    modem = Modem(seed=0)
    items = [modem.item(i) for i in range(400)]
    assert {(i.profile.name, i.fs) for i in items} == {
        (p.name, fs) for p in (AUDIBLE, ULTRASONIC) for fs in (44100, 48000)}
    assert {len(i.payload) for i in items} == set(range(1, 17))
    rt60 = [i.channel.rir.rt60 for i in items]
    snr = [i.channel.snr_db for i in items]
    assert min(rt60) < 0.32 and max(rt60) > 0.58
    assert min(snr) < -4.5 and max(snr) > 9.5


def test_inputs_are_seed_determined():
    a, b = (run.build("long_recording", 11, True, NullTracer()) for _ in range(2))
    assert all(np.array_equal(x.buf.samples, y.buf.samples) and x.payload == y.payload
               for x, y in zip(a.recordings, b.recordings))
    assert [i.payload for i in Modem(11).round(1, None)] == [
        i.payload for i in Modem(11).round(1, None)]


def test_run_size_depends_on_seconds_only():
    # a run's item set is fixed by the seed and --seconds, never by how fast
    # the machine goes, so attempted and failed repeat exactly for a seed
    for workload in (Sweep(11), LongRecording(11, 1, NullTracer()), Modem(11)):
        assert run.planned_rounds(workload, 0.1) == workload.quality_rounds
        assert run.planned_rounds(workload, 600) > workload.quality_rounds
