"""Command-line front end.

Subcommands: encode, decode, rt60, dereverb, simulate, bench.
Exit codes: 0 on success, 1 on domain/IO errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .bench import BenchConfig, run_benchmark, sweep_rooms, write_report
from .core import default_stft_config
from .dereverb import dereverberate
from .errors import SonolinkError
from .modem import PROFILES, Packet, decode_packet, encode_packet, profile_by_name
from .rt60 import DEFAULT_THRESHOLD_DB, estimate_rt60
from .simulate import ChannelSpec, RirSpec, apply_channel, save_rir_corpus, synth_rir
from .wavio import wav_read, wav_write

__all__ = ["main"]


def _hex_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a valid hex string: {text!r}")


def _sweep(text: str) -> tuple[float, ...]:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:  # not three fields, or not numbers
        raise argparse.ArgumentTypeError(f"sweep must be START:STOP:COUNT, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("sweep COUNT must be at least 1")
    values = [lo] if count == 1 else np.linspace(lo, hi, count)
    return tuple(round(float(v), 6) for v in values)


def _bit_depth(args) -> int:
    return 32 if getattr(args, "float32", False) else 16


def _cmd_encode(args) -> int:
    payload = args.payload if args.payload is not None else Path(args.payload_file).read_bytes()
    buf = encode_packet(Packet(payload), profile_by_name(args.profile), args.rate)
    wav_write(args.output, buf, bit_depth=_bit_depth(args))
    print(
        f"[encode] {len(payload)} bytes -> {args.output} ({buf.duration:.2f} s at {args.rate} Hz)",
        file=sys.stderr,
    )
    return 0


def _cmd_decode(args) -> int:
    buf = wav_read(args.input)
    result = decode_packet(buf, profile_by_name(args.profile))
    if args.json:
        blob = asdict(result)
        blob["payload"] = result.payload.hex() if result.ok else None
        print(json.dumps(blob, sort_keys=True))
        return 0 if result.ok else 1
    if result.ok:
        print(result.payload.hex())
        return 0
    print(f"decode failed: {result.failure}", file=sys.stderr)
    return 1


def _cmd_rt60(args) -> int:
    buf = wav_read(args.input)
    estimate = estimate_rt60(buf, threshold_db=args.threshold_db)
    if args.per_band:
        cfg = default_stft_config(buf.sample_rate)
        bin_hz = buf.sample_rate / cfg.window_length
        with open(args.per_band, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["band_index", "frequency_hz", "rt60", "r2"])
            for k, rt, r2 in estimate.per_band:
                writer.writerow([k, f"{k * bin_hz:.1f}", f"{rt:.4f}", f"{r2:.4f}"])
    print(f"{estimate.rt60:.2f}")
    return 0


def _cmd_dereverb(args) -> int:
    buf = wav_read(args.input)
    out, diag = dereverberate(buf, rt60=args.rt60)
    wav_write(args.output, out, bit_depth=_bit_depth(args))
    source = "estimated" if diag.rt60_estimated else "fallback" if diag.rt60_fallback else "given"
    print(
        f"[dereverb] rt60 {diag.rt60:.2f} s ({source}), mean gain {diag.mean_gain:.3f} "
        f"-> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    if args.corpus_out is not None:
        entries = sweep_rooms(
            args.rt60_values, args.rirs_per_rt, args.direct_gain, args.seed, args.sample_rate
        )
        save_rir_corpus(entries, args.corpus_out)
        print(f"[simulate] wrote {len(entries)} impulse responses to {args.corpus_out}", file=sys.stderr)
        return 0

    if args.output is None:
        parser.error("-o/--output is required unless --corpus-out is used")
    if args.rt60 is None and args.rir is None:
        parser.error("give --rt60 (synthesize) or --rir FILE (load)")

    if args.input is None and args.rir is not None:
        parser.error("--rir without --input does nothing; use --rt60 to synthesize")
    spec = None
    if args.rir is None:
        spec = RirSpec(rt60=args.rt60, length=args.length, direct_gain=args.direct_gain, seed=args.seed)

    if args.input is not None:
        dry = wav_read(args.input)
        # apply_channel synthesizes a RirSpec at the input's own rate
        rir = spec if spec is not None else wav_read(args.rir)
        chan = ChannelSpec(rir=rir, snr_db=args.snr, normalize=args.normalize, noise_seed=args.seed)
        wet = apply_channel(dry, chan)
        wav_write(args.output, wet, bit_depth=_bit_depth(args))
        print(f"[simulate] {args.input} -> {args.output} ({wet.duration:.2f} s)", file=sys.stderr)
        return 0

    wav_write(args.output, synth_rir(spec, args.sample_rate), bit_depth=32)
    print(f"[simulate] rt60 {args.rt60:g} s -> {args.output}", file=sys.stderr)
    return 0


def _fmt(value, suffix="") -> str:
    return "n/a" if value is None else f"{value:.2f}{suffix}"


def _cmd_bench(args) -> int:
    cfg = BenchConfig(**{f.name: getattr(args, f.name) for f in fields(BenchConfig)})
    out = Path(args.output)
    created = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails here, not after the sweep
    try:
        report = run_benchmark(cfg)
    except BaseException:
        for p in created:
            p.rmdir()  # a failed run leaves no directory behind
        raise
    paths = write_report(report, args.output)
    agg = report.aggregates
    print(f"rows: {agg['row_count']}   errors: {len(report.errors)}")
    print(
        "decode rate before/after: "
        f"{_fmt(agg['decode_rate_before'])} / {_fmt(agg['decode_rate_after'])} %"
    )
    print(
        "mean LSD before/after: "
        f"{_fmt(agg['mean_lsd_before'])} / {_fmt(agg['mean_lsd_after'])} dB"
    )
    print(f"mean RR: {_fmt(agg['mean_rr'], ' dB')}   rt60 MAE: {_fmt(agg['rt60_mae'], ' s')}")
    print("report: " + " ".join(str(p) for p in paths.values()))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sonolink",
        description="Acoustic data transfer: FSK packets, reverberation tools, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a payload into a packet WAV")
    src = enc.add_mutually_exclusive_group(required=True)
    src.add_argument("--payload", type=_hex_bytes, help="payload as a hex string")
    src.add_argument("--payload-file", help="read payload bytes from a file")
    enc.add_argument("--profile", default="audible", choices=PROFILES)
    enc.add_argument("--rate", type=int, default=44100, help="sample rate in Hz")
    enc.add_argument("--float32", action="store_true", help="write 32-bit float samples")
    enc.add_argument("-o", "--output", required=True, help="output WAV path")
    enc.set_defaults(run=_cmd_encode)

    dec = sub.add_parser("decode", help="decode a packet WAV, print the payload hex")
    dec.add_argument("input", help="WAV file to decode")
    dec.add_argument("--profile", default="audible", choices=PROFILES)
    dec.add_argument("--json", action="store_true", help="print a JSON result object")
    dec.set_defaults(run=_cmd_decode)

    rt = sub.add_parser("rt60", help="blind reverberation-time estimate (seconds)")
    rt.add_argument("input", help="WAV file to analyze")
    rt.add_argument("--threshold-db", type=float, default=DEFAULT_THRESHOLD_DB,
                    help="subband inclusion threshold below the global peak")
    rt.add_argument("--per-band", help="write per-band estimates to this CSV")
    rt.set_defaults(run=_cmd_rt60)

    der = sub.add_parser("dereverb", help="suppress late reverberation in a WAV")
    der.add_argument("input", help="WAV file to process")
    der.add_argument("-o", "--output", required=True, help="output WAV path")
    der.add_argument("--rt60", type=float, help="known RT60; omit to estimate blindly")
    der.add_argument("--float32", action="store_true", help="write 32-bit float samples")
    der.set_defaults(run=_cmd_dereverb)

    # the synthetic sweep's flags, shared by simulate and bench: their dest
    # names are BenchConfig's field names and their defaults its defaults
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--sweep", dest="rt60_values", type=_sweep, default=BenchConfig.rt60_values,
                       help="synthetic RT60 sweep as START:STOP:COUNT")
    sweep.add_argument("--seeds-per-rt", dest="rirs_per_rt", type=int,
                       default=BenchConfig.rirs_per_rt, help="impulse responses per RT60")
    sweep.add_argument("--direct-gain", type=float, default=BenchConfig.direct_gain,
                       help="direct-path gain of synthesized impulse responses (sets DRR)")
    sweep.add_argument("--seed", type=int, default=BenchConfig.seed)
    sweep.add_argument("--rate", dest="sample_rate", type=int, default=BenchConfig.sample_rate)

    sim = sub.add_parser("simulate", parents=[sweep],
                         help="synthesize impulse responses / reverberant audio")
    sim.add_argument("--rt60", type=float, help="reverberation time to synthesize")
    sim.add_argument("--length", type=float, help="RIR length in seconds (default 1.5*rt60)")
    sim.add_argument("--rir", help="use an impulse response from this WAV instead")
    sim.add_argument("--input", help="dry WAV to push through the channel")
    sim.add_argument("--snr", type=float, help="additive white noise SNR in dB")
    sim.add_argument("--normalize", type=float, help="peak-normalize the output to this level")
    sim.add_argument("--float32", action="store_true")
    sim.add_argument("-o", "--output", help="output WAV path")
    sim.add_argument("--corpus-out", help="write the sweep's labeled RIR corpus to this directory")
    sim.set_defaults(run=lambda a: _cmd_simulate(a, sim))

    ben = sub.add_parser("bench", parents=[sweep], help="run the end-to-end benchmark, write reports")
    # dest names are BenchConfig's field names; _cmd_bench passes them on as they are
    ben.add_argument("--packets", dest="packets_per_rir", type=int,
                     default=BenchConfig.packets_per_rir, help="packets per impulse response")
    ben.add_argument("--payload-bytes", type=int, default=BenchConfig.payload_bytes)
    ben.add_argument("--profile", default=BenchConfig.profile, choices=PROFILES)
    ben.add_argument("--corpus", dest="corpus_dir",
                     help="RIR corpus directory (overrides the synthetic sweep)")
    ben.add_argument("--snr", dest="snr_db", type=float, help="channel noise SNR in dB")
    ben.add_argument("--threads", type=int, help="worker threads (default: CPU count, at most 8)")
    ben.add_argument("--dereverb", default=BenchConfig.dereverb, choices=["off", "both"])
    ben.add_argument("-o", "--output", required=True, help="report output directory")
    ben.set_defaults(run=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse usage errors / --help
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    except (SonolinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
