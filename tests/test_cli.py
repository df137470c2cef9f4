"""Command-line behavior: exit codes, outputs, file side effects."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from sonolink import cli
from sonolink.bench import BenchConfig, sweep_rooms
from sonolink.cli import _sweep, main
from sonolink.core import AudioBuffer
from sonolink.modem import DecodeResult
from sonolink.simulate import load_rir_corpus
from sonolink.wavio import wav_read, wav_write

RATE = 22050


def _burst_wav(path, rt60=0.5, seconds=2.0, fs=RATE, seed=0):
    rng = np.random.default_rng(seed)
    n = int(seconds * fs)
    t = np.arange(n) / fs
    env = np.exp(-(3.0 * np.log(10.0) / rt60) * t)
    env[:50] *= np.linspace(0.0, 1.0, 50)
    wav_write(path, AudioBuffer(0.4 * rng.standard_normal(n) * env, fs), bit_depth=32)
    return path


# ---------------------------------------------------------------------------
# sweep argument parsing
# ---------------------------------------------------------------------------


def test_sweep_parses_linear_grid():
    assert _sweep("0.4:2.0:5") == (0.4, 0.8, 1.2, 1.6, 2.0)


def test_sweep_single_point_uses_start():
    assert _sweep("0.7:9.9:1") == (0.7,)


@pytest.mark.parametrize("text", ["1:2", "a:b:c", "0.4:2.0:0"])
def test_sweep_rejects_malformed(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _sweep(text)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_decode_roundtrip(tmp_path, capsys):
    wav = str(tmp_path / "packet.wav")
    assert main(["encode", "--payload", "a1b2c3", "--rate", str(RATE), "-o", wav]) == 0
    assert main(["decode", wav]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "a1b2c3"


def test_encode_from_payload_file(tmp_path, capsys):
    blob = tmp_path / "payload.bin"
    blob.write_bytes(b"\x00\xff\x10")
    wav = str(tmp_path / "packet.wav")
    code = main(
        ["encode", "--payload-file", str(blob), "--rate", str(RATE), "-o", wav]
    )
    assert code == 0
    assert main(["decode", wav]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "00ff10"


def test_decode_json_fields(tmp_path, capsys):
    wav = str(tmp_path / "packet.wav")
    main(["encode", "--payload", "beef", "--rate", str(RATE), "-o", wav])
    assert main(["decode", wav, "--json"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    blob = json.loads(line)
    # one key per DecodeResult field, printed in sorted order
    assert list(blob) == sorted(f.name for f in dataclasses.fields(DecodeResult))
    assert line == json.dumps(blob, sort_keys=True)
    assert blob["payload"] == "beef"
    assert blob["failure"] is None
    assert blob["preamble_offset"] == 0
    assert blob["corrected_errors"] == 0
    assert blob["erasures_used"] == 0


def test_decode_noise_fails_with_json_details(tmp_path, capsys):
    wav = str(tmp_path / "noise.wav")
    rng = np.random.default_rng(1)
    wav_write(wav, AudioBuffer(0.05 * rng.standard_normal(RATE), RATE))
    assert main(["decode", wav, "--json"]) == 1
    blob = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert blob["payload"] is None
    assert blob["failure"] == "no-preamble"


# ---------------------------------------------------------------------------
# rt60 / dereverb
# ---------------------------------------------------------------------------


def test_rt60_prints_two_decimals(tmp_path, capsys):
    wav = _burst_wav(tmp_path / "burst.wav")
    assert main(["rt60", str(wav)]) == 0
    line = capsys.readouterr().out.strip()
    assert len(line.split(".")[-1]) == 2
    assert 0.2 < float(line) < 1.0


def test_rt60_per_band_csv(tmp_path, capsys):
    wav = _burst_wav(tmp_path / "burst.wav")
    csv_path = tmp_path / "bands.csv"
    assert main(["rt60", str(wav), "--per-band", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "band_index,frequency_hz,rt60,r2"
    assert len(lines) > 1


def test_rt60_on_silence_is_a_domain_error(tmp_path, capsys):
    wav = str(tmp_path / "silence.wav")
    wav_write(wav, AudioBuffer(np.zeros(RATE), RATE))
    assert main(["rt60", wav]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-10", "nan", "inf"])
def test_rt60_bad_threshold_names_the_option(tmp_path, capsys, value):
    wav = _burst_wav(tmp_path / "burst.wav")
    assert main(["rt60", str(wav), "--threshold-db", value]) == 1
    assert "error: threshold_db must be finite and >= 0" in capsys.readouterr().err


def test_dereverb_writes_output(tmp_path, capsys):
    wav = _burst_wav(tmp_path / "wet.wav")
    out = tmp_path / "dry.wav"
    code = main(["dereverb", str(wav), "--rt60", "0.5", "--float32", "-o", str(out)])
    assert code == 0
    assert "(given)" in capsys.readouterr().err
    processed = wav_read(out)
    assert len(processed) == len(wav_read(wav))


def test_dereverb_nan_rt60_exits_1(tmp_path, capsys):
    wav = _burst_wav(tmp_path / "wet.wav")
    out = tmp_path / "dry.wav"
    assert main(["dereverb", str(wav), "--rt60", "nan", "-o", str(out)]) == 1
    assert "error: rt60 must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_float32_rir(tmp_path):
    out = tmp_path / "rir.wav"
    code = main(
        ["simulate", "--rt60", "0.4", "--rate", str(RATE), "-o", str(out)]
    )
    assert code == 0
    rir = wav_read(out)
    assert len(rir) == round(0.6 * RATE)
    # the direct path is the bench's default gain, as float32
    assert rir.samples[0] == np.float32(BenchConfig.direct_gain)


def test_simulate_channel_on_input(tmp_path):
    dry = str(tmp_path / "dry.wav")
    main(["encode", "--payload", "0102", "--rate", str(RATE), "-o", dry])
    wet = tmp_path / "wet.wav"
    code = main(
        [
            "simulate", "--input", dry, "--rt60", "0.3", "--seed", "1",
            "--normalize", "0.5", "--float32", "-o", str(wet),
        ]
    )
    assert code == 0
    n_dry = len(wav_read(dry))
    n_rir = round(0.45 * RATE)
    out = wav_read(wet)
    assert len(out) == n_dry + n_rir - 1
    assert np.max(np.abs(out.samples)) == pytest.approx(0.5, abs=1e-6)


def test_simulate_corpus_out(tmp_path):
    corpus = tmp_path / "corpus"
    code = main(
        [
            "simulate", "--corpus-out", str(corpus), "--sweep", "0.3:0.5:2",
            "--seeds-per-rt", "2", "--rate", str(RATE),
        ]
    )
    assert code == 0
    entries = load_rir_corpus(corpus)
    assert len(entries) == 4
    assert sorted({e.rt60 for e in entries}) == [0.3, 0.5]


def test_simulate_corpus_out_writes_the_bench_rooms(tmp_path):
    cfg = BenchConfig(
        sample_rate=RATE, rt60_values=(0.3, 0.5), rirs_per_rt=2, direct_gain=0.7, seed=5
    )
    assert _sweep("0.3:0.5:2") == cfg.rt60_values
    corpus = tmp_path / "corpus"
    code = main(
        [
            "simulate", "--corpus-out", str(corpus), "--sweep", "0.3:0.5:2",
            "--seeds-per-rt", "2", "--direct-gain", "0.7", "--seed", "5", "--rate", str(RATE),
        ]
    )
    assert code == 0
    _assert_corpus_holds_the_bench_rooms(corpus, cfg)


def test_simulate_corpus_out_defaults_to_the_bench_direct_gain(tmp_path):
    cfg = BenchConfig(sample_rate=RATE, rt60_values=(0.3, 0.5), rirs_per_rt=2)
    corpus = tmp_path / "corpus"
    code = main(
        [
            "simulate", "--corpus-out", str(corpus), "--sweep", "0.3:0.5:2",
            "--seeds-per-rt", "2", "--rate", str(RATE),
        ]
    )
    assert code == 0
    _assert_corpus_holds_the_bench_rooms(corpus, cfg)


def _assert_corpus_holds_the_bench_rooms(corpus, cfg):
    written = {e.name: e for e in load_rir_corpus(corpus)}
    rooms = sweep_rooms(cfg.rt60_values, cfg.rirs_per_rt, cfg.direct_gain, cfg.seed, cfg.sample_rate)
    assert sorted(written) == sorted(room.name + ".wav" for room in rooms)
    for room in rooms:
        entry = written[room.name + ".wav"]
        assert entry.rt60 == room.rt60
        assert entry.audio.sample_rate == room.audio.sample_rate
        np.testing.assert_array_equal(entry.audio.samples, room.audio.samples.astype(np.float32))


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_tiny_run(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(
        [
            "bench", "--sweep", "0.4:0.4:1", "--seeds-per-rt", "1",
            "--packets", "1", "--payload-bytes", "2", "--rate", str(RATE),
            "--threads", "1", "-o", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "report.csv").is_file()
    stdout = capsys.readouterr().out
    assert "rows: 1" in stdout
    blob = json.loads((out_dir / "report.json").read_text())
    assert blob["config"]["rt60_values"] == [0.4]


@pytest.mark.parametrize("rate, message", [("16000", "Nyquist"), ("0", "sample_rate")])
def test_bench_bad_rate_exits_1(tmp_path, capsys, rate, message):
    out_dir = tmp_path / "report"
    code = main(
        [
            "bench", "--sweep", "0.4:0.4:1", "--seeds-per-rt", "1",
            "--packets", "1", "--rate", rate, "--threads", "1", "-o", str(out_dir),
        ]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--seed", "-1", "-o"], "seed must be non-negative"),
        (["bench", "--sweep", "1e-5:1e-5:1", "-o"], "under 2 samples"),
        (["simulate", "--seed", "-1", "--rt60", "0.3", "-o"], "seed must be non-negative"),
        (["simulate", "--seed", "-1", "--corpus-out"], "seed must be non-negative"),
    ],
)
def test_bad_seed_or_room_exits_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = main(argv + [str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def _bench_config(monkeypatch, argv):
    """The BenchConfig that ``main(argv)`` hands to run_benchmark."""

    class Captured(Exception):
        pass

    def fake_run(cfg):
        raise Captured(cfg)

    monkeypatch.setattr(cli, "run_benchmark", fake_run)
    with pytest.raises(Captured) as caught:
        main(argv)
    return caught.value.args[0]


def test_report_digest_command_runs_the_acceptance_sweep(tmp_path, monkeypatch):
    # the README's report-bytes check must run exactly the acceptance SWEEP
    from test_acceptance import SWEEP

    argv = ["bench", "--packets", "2", "--threads", "1", "-o", str(tmp_path)]
    assert _bench_config(monkeypatch, argv) == SWEEP


def test_bench_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    assert _bench_config(monkeypatch, ["bench", "-o", str(tmp_path / "out")]) == BenchConfig()


def test_bench_into_an_existing_file_fails_before_the_sweep(tmp_path, capsys):
    target = tmp_path / "report"
    target.write_text("not a directory")
    code = main(
        [
            "bench", "--sweep", "0.4:0.4:1", "--seeds-per-rt", "1", "--packets", "1",
            "--rate", str(RATE), "--threads", "1", "-o", str(target),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "File exists" in err
    assert "[bench]" not in err  # the sweep never started
    assert target.read_text() == "not a directory"


def test_failed_bench_removes_the_directories_it_made(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert main(["bench", "--sweep", "1e-5:1e-5:1", "-o", str(out)]) == 1
    assert "under 2 samples" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["encode", "--payload", "aa"]) == 2  # missing -o
    assert main(["encode", "--payload", "zz", "-o", "x.wav"]) == 2  # bad hex
    assert main(["simulate", "--rir", "r.wav", "-o", "x.wav"]) == 2  # no --input
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_input_exits_1(tmp_path, capsys):
    assert main(["decode", str(tmp_path / "nope.wav")]) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "encode" in capsys.readouterr().out
