"""End-to-end acceptance checks.

One test per headline requirement; each prints a single summary line on
success so the -v run doubles as a checklist.  The reverberation-sweep
benchmark (5 reverberation times x 20 rooms) is shared by the estimation,
distortion, reverberation-reduction, and decode-gain checks, and by the
check that pins the bytes of the report it writes.
"""

import dataclasses
import hashlib
import time

import numpy as np
import pytest
import scipy.stats

from sonolink.bench import BenchConfig, run_benchmark, write_report
from sonolink.core import BLOCK_FRAMES, AudioBuffer, Spectrogram, StftConfig, istft, stft
from sonolink.dereverb import (
    DereverbConfig,
    ReverbModel,
    dereverberate,
    reverberant_psd,
    spectral_gain,
)
from sonolink.errors import EstimationError
from sonolink.modem import Packet, decode_packet, encode_packet, profile_by_name
from sonolink.rs import rs_decode, rs_encode
from sonolink.rt60 import estimate_rt60

SWEEP = BenchConfig(
    profile="audible",
    sample_rate=44100,
    rt60_values=(0.4, 0.8, 1.2, 1.6, 2.0),
    rirs_per_rt=20,
    packets_per_rir=2,
    payload_bytes=4,
    seed=0,
    dereverb="both",
    threads=1,
)


@pytest.fixture(scope="module")
def sweep_report():
    started = time.perf_counter()
    report = run_benchmark(SWEEP)
    return report, time.perf_counter() - started


def _decaying_burst(rng, rt60, fs=8000, seconds=1.6):
    n = int(seconds * fs)
    t = np.arange(n) / fs
    env = np.exp(-(3.0 * np.log(10.0) / rt60) * t)
    env[:50] *= np.linspace(0.0, 1.0, 50)
    return AudioBuffer(0.5 * rng.standard_normal(n) * env, fs)


# ---------------------------------------------------------------------------
# 1. modem correctness under clean conditions + FEC bound
# ---------------------------------------------------------------------------


def test_criterion_1_modem_and_fec():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)

    decoded = 0
    for profile_name in ("audible", "ultrasonic"):
        profile = profile_by_name(profile_name)
        for fs in (44100, 48000):
            for _ in range(50):
                payload = rng.bytes(int(rng.integers(1, 17)))
                result = decode_packet(encode_packet(Packet(payload), profile, fs), profile)
                decoded += result.ok and result.payload == payload
    assert decoded == 200

    # errors-and-erasures bound 2e + f <= 8, randomized over message length,
    # error count, erasure count, positions, and corruption values
    for _ in range(1000):
        k = int(rng.integers(1, 24))
        data = [int(v) for v in rng.integers(0, 32, k)]
        codeword = rs_encode(data, 8)
        e = int(rng.integers(0, 5))
        f = int(rng.integers(0, 8 - 2 * e + 1))
        positions = rng.choice(len(codeword), size=e + f, replace=False)
        corrupted = list(codeword)
        for p in positions:
            corrupted[p] = (corrupted[p] + int(rng.integers(1, 32))) % 32
        recovered, fixed = rs_decode(
            corrupted, 8, erasures=[int(p) for p in positions[e:]]
        )
        assert recovered == data
        assert fixed <= e

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"[criterion 1] PASS: 200/200 clean decodes across profiles and rates, "
        f"1000/1000 FEC trials inside the 2e+f<=8 bound, {elapsed:.1f} s"
    )


# ---------------------------------------------------------------------------
# 2. blind RT60 accuracy over the synthetic sweep
# ---------------------------------------------------------------------------


def test_criterion_2_rt60_accuracy(sweep_report):
    report, elapsed = sweep_report
    mae = report.aggregates["rt60_mae"]
    assert report.aggregates["rt60_estimates"] == 100
    assert mae is not None and mae <= 0.25
    assert elapsed < 300.0
    print(
        f"[criterion 2] PASS: blind RT60 MAE {mae:.3f} s <= 0.25 s over 100 rooms, "
        f"sweep took {elapsed:.0f} s"
    )


# ---------------------------------------------------------------------------
# 3. spectral distortion improves for nearly every room
# ---------------------------------------------------------------------------


def test_criterion_3_lsd_improvement(sweep_report):
    report, _ = sweep_report
    fraction = report.aggregates["lsd_improved_fraction"]
    assert fraction is not None and fraction >= 0.90
    print(
        f"[criterion 3] PASS: dereverberation lowered LSD for "
        f"{100 * fraction:.0f}% of rooms (>= 90% required)"
    )


# ---------------------------------------------------------------------------
# 4. reverberation reduction is positive and tracks reverberation time
# ---------------------------------------------------------------------------


def test_criterion_4_rr_positive_and_rank_correlated(sweep_report):
    report, _ = sweep_report
    truths = [row.true_rt60 for row in report.rows]
    rr_values = [row.mean_rr for row in report.rows]
    assert all(v is not None and v > 0.0 for v in rr_values)
    rho = scipy.stats.spearmanr(truths, rr_values).correlation
    assert rho > 0.0
    print(
        f"[criterion 4] PASS: mean RR positive on all {len(rr_values)} rows, "
        f"Spearman rho {rho:.3f} > 0"
    )


# ---------------------------------------------------------------------------
# 5. decode-rate gain from dereverberation on strongly reverberant rooms
# ---------------------------------------------------------------------------


def test_criterion_5_decode_rate_gain(sweep_report):
    report, _ = sweep_report
    rows = [r for r in report.rows if r.true_rt60 is not None and r.true_rt60 >= 0.8]
    assert len(rows) == 80
    before = float(np.mean([r.decode_rate_before for r in rows]))
    after = float(np.mean([r.decode_rate_after for r in rows]))
    assert after - before >= 10.0
    print(
        f"[criterion 5] PASS: decode rate {before:.1f}% -> {after:.1f}% "
        f"(+{after - before:.1f} points, >= +10 required) on RT60 >= 0.8 s"
    )


# ---------------------------------------------------------------------------
# 6. randomized property suites, >= 100 cases each
# ---------------------------------------------------------------------------


def test_criterion_6_property_suites():
    rng = np.random.default_rng(77)

    # (a) analysis/synthesis round-trip identity
    cola_cases = 0
    configs = [StftConfig(2048, 128), StftConfig(512, 32), StftConfig(256, 64)]
    for case in range(102):
        cfg = configs[case % len(configs)]
        x = rng.standard_normal(int(rng.integers(cfg.window_length, 4 * cfg.window_length)))
        back = istft(stft(AudioBuffer(x, 8000), cfg))
        err = np.sqrt(np.mean((back.samples[1:] - x[1:]) ** 2) / np.mean(x[1:] ** 2))
        assert err < 1e-6
        cola_cases += 1

    # (b) suppression gain stays inside [floor, 1]
    gain_cases = 0
    cfg = DereverbConfig()
    for _ in range(110):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        power = rng.random(shape) * 10.0 ** rng.integers(-12, 7)
        gamma = rng.random(shape) * 10.0 ** rng.integers(-12, 7)
        gamma[rng.random(shape) < 0.2] = 0.0
        grid = spectral_gain(power, gamma, cfg)
        assert np.all(grid.gain >= cfg.gain_floor - 1e-12)
        assert np.all(grid.gain <= 1.0 + 1e-12)
        gain_cases += 1

    # (c) dereverberation commutes with power-of-two amplitude scaling
    small = DereverbConfig(stft=StftConfig(256, 16))
    scale_cases = 0
    for case in range(100):
        buf = _decaying_burst(rng, rt60=float(rng.uniform(0.3, 1.2)), seconds=0.8)
        scale = 2.0 ** (case % 24 - 12)
        out, _ = dereverberate(buf, small, rt60=0.5)
        out_scaled, _ = dereverberate(AudioBuffer(buf.samples * scale, buf.sample_rate), small, rt60=0.5)
        assert np.array_equal(out_scaled.samples, out.samples * scale)
        scale_cases += 1

    # (d) blind RT60 estimates ignore absolute level entirely
    est_cfg = StftConfig(512, 32)
    est_cases = 0
    for case in range(100):
        buf = _decaying_burst(rng, rt60=float(rng.uniform(0.3, 1.2)))
        scale = 2.0 ** (case % 20 - 10)
        scaled = AudioBuffer(buf.samples * scale, buf.sample_rate)
        try:
            base = estimate_rt60(buf, est_cfg).rt60
        except EstimationError:
            with pytest.raises(EstimationError):
                estimate_rt60(scaled, est_cfg)
        else:
            assert estimate_rt60(scaled, est_cfg).rt60 == base
        est_cases += 1

    # (e) the applied mask never amplifies any time-frequency bin, and it is
    # the mask the suppressor applies: inverting the shaped grid gives its
    # output bit for bit
    contraction_cases = 0
    for _ in range(100):
        buf = _decaying_burst(rng, rt60=float(rng.uniform(0.3, 2.0)), seconds=0.8)
        rt60 = float(rng.uniform(0.2, 1.5))
        out, diag = dereverberate(buf, small, rt60=rt60)
        grid = stft(buf, small.stft)
        power = grid.power()
        period = small.stft.frame_period(buf.sample_rate)
        gamma = reverberant_psd(power, ReverbModel(rt60), small, period)
        gain = spectral_gain(power, gamma, small).gain
        magnitude = np.abs(grid.bins)
        masked = gain * magnitude
        assert masked.shape == magnitude.shape
        assert np.all(masked <= magnitude * (1.0 + 1e-12))
        shaped = Spectrogram(grid.bins * gain, grid.config, grid.sample_rate, grid.num_samples)
        assert np.array_equal(istft(shaped).samples, out.samples)
        # the running mean: sums of blocks of frames of the gain, over the cell count
        gain_sum = 0.0
        for s in range(0, gain.shape[1], BLOCK_FRAMES):
            gain_sum += float(np.sum(gain[:, s:s + BLOCK_FRAMES]))
        assert diag.mean_gain == gain_sum / gain.size
        contraction_cases += 1

    counts = (cola_cases, gain_cases, scale_cases, est_cases, contraction_cases)
    assert all(c >= 100 for c in counts)
    print(
        "[criterion 6] PASS: property suites held on "
        + "/".join(str(c) for c in counts)
        + " cases (round-trip, gain bounds, scale equivariance, level invariance, contraction)"
    )


# ---------------------------------------------------------------------------
# 7. benchmark reports are byte-identical across runs and thread counts
# ---------------------------------------------------------------------------


def test_criterion_7_benchmark_determinism(tmp_path):
    cfg = BenchConfig(
        profile="audible",
        sample_rate=22050,
        rt60_values=(0.4, 0.8),
        rirs_per_rt=2,
        packets_per_rir=1,
        payload_bytes=2,
        seed=123,
        threads=1,
    )
    blobs = []
    for name, variant in (
        ("first", cfg),
        ("second", cfg),
        ("threaded", dataclasses.replace(cfg, threads=2)),
    ):
        paths = write_report(run_benchmark(variant), tmp_path / name)
        blobs.append(paths["json"].read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print(
        "[criterion 7] PASS: report.json byte-identical across repeated runs "
        "and thread counts 1 vs 2"
    )


# ---------------------------------------------------------------------------
# the acceptance sweep's report bytes
# ---------------------------------------------------------------------------

# sha256 of the files `sonolink bench --packets 2 --threads 1 -o DIR` writes.
# A change that moves them updates these digests and says why in CHANGES.md.
REPORT_SHA256 = {
    "json": "d03a00398bcbd638b3ab6e68b7cb8bf6c3ce8bc6e009b9222a577ca9280e882d",
    "csv": "637be2274945d2625556c1bb29d384db1730797e04d9bd68f1125262c997cf5a",
}


def test_sweep_report_bytes_are_pinned(sweep_report, tmp_path):
    report, _ = sweep_report
    paths = write_report(report, tmp_path)
    digests = {kind: hashlib.sha256(path.read_bytes()).hexdigest() for kind, path in paths.items()}
    assert digests == REPORT_SHA256
