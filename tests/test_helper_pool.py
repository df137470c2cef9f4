"""The grid passes' and the channel's helper thread.  ``core._halves`` is
the one way to it: ``stft``, ``lsd`` and ``rr`` split their blocks into
halves, and ``estimate_rt60``, the overlap-add pipeline that ``istft`` and
``dereverberate`` share (``core._overlap_add``) and ``apply_channel`` split
each block's, or each convolution step's, two parts.  ``apply_channel``'s
helper synthesises a RirSpec's room while the caller transforms the
signal, and draws an SNR's noise into the result while the caller
transforms the room and inverts, so it gets a task for each step with work
in it: two for a RirSpec with an SNR, one for a RirSpec without one or a
room given as samples with one, and none for a room given as samples
without one.
The helper's half runs on the helper pool when the main thread makes a
split of two or more items, and in the caller, first, on a worker thread,
which never hands the pool a task, with one usable CPU and for one item;
``istft`` shapes no block, so it runs every step in the caller on any
thread.  Both give the same bytes, equal to the whole-grid references of
``test_block_grid.py``, for ``estimate_rt60`` to the one-thread block form
below and for ``apply_channel`` to ``test_workspace.py``'s fresh-array
reference.  No helper task allocates more than a 64-row block of its grid,
or more than the room in ``apply_channel``; no split leaves the helper's
half running; an error in either half reaches the caller only after the
helper's half has ended; a pass of an empty grid and a channel with bad
inputs fail before any task; a forked child does not inherit the parent's
pool; passes still run in an atexit callback, when the pool takes no more
tasks; and only a one-worker ``run_benchmark`` runs its rooms where the
helper is used."""

import dataclasses
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_bench import TINY
from test_block_grid import (
    THREADS,
    _block_mean,
    _fewer_frames_than_overlap,
    _half_silent,
    _in_a_worker,
    _long_noise,
    _reference_dereverberate,
    _reference_istft,
    _reference_lsd,
    _reference_rr,
    _reference_stft,
    _silence_in_second_block,
    signals,
)
from test_workspace import CAP, _apply_channel_reference

from sonolink import core, metrics, rt60, simulate
from sonolink.bench import run_benchmark
from sonolink.core import (BLOCK_FRAMES, AudioBuffer, Spectrogram, _halves, _power,
                           default_stft_config, istft, stft)
from sonolink.dereverb import DereverbConfig, dereverberate
from sonolink.errors import InvalidArgumentError, SonolinkError
from sonolink.metrics import lsd, rr
from sonolink.rt60 import estimate_rt60
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel, synth_rir


class _CountingPool(ThreadPoolExecutor):
    """A helper pool that counts the tasks handed to it, and those handed
    to it from a thread other than the main thread."""

    def __init__(self):
        super().__init__(1, thread_name_prefix="test-helper")
        self.tasks = self.foreign = 0

    def submit(self, fn, *args, **kwargs):
        self.tasks += 1
        self.foreign += threading.current_thread() is not threading.main_thread()
        return super().submit(fn, *args, **kwargs)


@pytest.fixture(scope="module")
def pool():
    """The main thread's helper pool, present even on a one-CPU machine."""
    saved = core._pool
    core._pool = _CountingPool()
    try:
        yield core._pool
    finally:
        core._pool.shutdown()
        core._pool = saved


def _or_error(fn, *args):
    """fn(*args), or the name of the sonolink error it raised."""
    try:
        return fn(*args)
    except SonolinkError as exc:
        return type(exc).__name__


def _clean(buf):
    """A clean reference for ``buf``: a tone at an eighth of the rate over
    its first half, as the bench's packet padded to the recording's length,
    so many bands of the grid are silent."""
    return _half_silent(AudioBuffer(np.sin(np.pi / 4.0 * np.arange(len(buf))), buf.sample_rate))


def _passes(buf, cfg, rt60):
    """Each pass's output: those of :func:`_grid_passes` and :func:`_metric_passes`."""
    out = _grid_passes(buf, cfg, rt60)
    out.update(_metric_passes(buf, cfg, out["recording"]))
    return out


def _grid_passes(buf, cfg, rt60):
    """stft's bins, istft of them, and dereverberate on the recording with
    ``rt60`` (None: blind) and on the grid."""
    grid = stft(buf, cfg.stft)
    out = {"stft": grid.bins, "istft": istft(grid).samples}
    for name, given_input in (("recording", buf), ("grid", grid)):
        samples, diag = dereverberate(given_input, cfg, rt60=rt60)
        out[name] = samples.samples
        out[name + " diagnostics"] = (diag.rt60, diag.mean_gain)
    return out


def _metric_passes(buf, cfg, processed):
    """The metrics of the recording's grid (the reverberant one) and of
    ``processed``, its dereverberated samples (the processed one), against
    :func:`_clean`: lsd of both, rr and estimate_rt60."""
    grid = stft(buf, cfg.stft)
    clean = stft(_clean(buf), cfg.stft)
    processed = stft(AudioBuffer(processed, buf.sample_rate), cfg.stft)
    return {"lsd": (lsd(clean, grid), lsd(clean, processed)),
            "rr": _or_error(rr, grid, processed, clean),
            "estimate_rt60": _or_error(estimate_rt60, grid)}


def _same(got, want) -> bool:
    """Equal bytes in every output."""
    return got.keys() == want.keys() and all(
        got[k].tobytes() == want[k].tobytes() if isinstance(got[k], np.ndarray)
        else got[k] == want[k] for k in got)


def _check_against_references(buf, cfg, rt60, got):
    want_grid = _reference_stft(buf, cfg.stft)
    assert np.array_equal(got["stft"], want_grid.bins)  # a skipped frame holds +0, rfft may give -0
    assert np.array_equal(got["istft"], _reference_istft(want_grid).samples)
    want, gains, want_rt60 = _reference_dereverberate(buf, cfg, rt60)
    for name in ("recording", "grid"):
        assert np.array_equal(got[name], want.samples), name
        assert got[name + " diagnostics"] == (want_rt60, _block_mean(gains.gain)), name
    clean = _reference_stft(_clean(buf), cfg.stft)
    processed = _reference_stft(want, cfg.stft)
    assert got["lsd"] == (_reference_lsd(clean, want_grid), _reference_lsd(clean, processed))
    assert got["rr"] == (_reference_rr(want_grid, processed, clean) or "MetricError")
    assert got["estimate_rt60"] == _or_error(_reference_rt60, want_grid)


def _retained_bands(grid):
    """The bands the blind RT60 estimate fits: those whose peak power is
    within its threshold of the loudest band's; none in a silent grid."""
    peaks = grid.power().max(axis=1)
    if peaks.max() <= 0.0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(peaks >= peaks.max() * 10.0 ** (-rt60.DEFAULT_THRESHOLD_DB / 10.0))


def _reference_rt60(grid):
    # the one-thread form: each block of retained bands gathered whole, in order
    bins, period = grid.bins, grid.config.frame_period(grid.sample_rate)
    bands = _retained_bands(grid)
    offset = math.ceil(rt60.DEFAULT_DECAY_OFFSET / period)
    per_band = []
    for s in range(0, bands.size, BLOCK_FRAMES):
        block = bands[s:s + BLOCK_FRAMES]
        curves, ok = rt60._decay_curves(_power(bins[block, ::-1]), offset)
        rt60_k, r2 = rt60._fit_decays(curves, period)
        per_band += zip(block.tolist(), np.where(ok, rt60_k, 0.0).tolist(),
                        np.where(ok, r2, 0.0).tolist())
    valid = [v for _, v, _ in per_band if v > 0.0]
    if not valid:
        raise rt60.EstimationError("no subband produced a usable decay fit")
    return rt60.RtEstimate(float(np.mean(valid)), per_band, len(valid))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(signals(), st.sampled_from([None, 0.3, 1.5]))
@example(_silence_in_second_block(), 0.3)
@example(_fewer_frames_than_overlap(), None)
def test_both_paths_match_the_references(pool, case, rt60):
    # block counts of 1 to 3 and hops from 1 sample to the whole window: the
    # main thread hands the helper tasks of every pass of two or more blocks
    # to the helper, and a worker thread runs the same tasks itself; a pass
    # of one block (of frames, or of retained bands in the blind estimate)
    # runs only the caller's step and hands the pool nothing
    buf, stft_cfg = case
    cfg = DereverbConfig(stft=stft_cfg)
    tasks = pool.tasks
    pooled = _grid_passes(buf, cfg, rt60)
    grid_tasks = pool.tasks - tasks
    pooled.update(_metric_passes(buf, cfg, pooled["recording"]))
    metric_tasks = pool.tasks - tasks - grid_tasks
    inline = _in_a_worker(_passes, buf, cfg, rt60)
    assert pool.tasks - tasks == grid_tasks + metric_tasks  # the worker never touched the pool
    assert pool.foreign == 0
    # the grid passes hand tasks exactly when they have two or more blocks:
    # of frames, or of retained bands in the blind estimate
    grid = _reference_stft(buf, stft_cfg)
    bands = _retained_bands(grid).size if rt60 is None else 0
    assert (grid_tasks > 0) == (max(grid.num_frames, bands) > BLOCK_FRAMES)
    if grid.num_frames > BLOCK_FRAMES:  # lsd's clean-power pass splits the frame blocks
        assert metric_tasks > 0
    assert _same(pooled, inline)
    _check_against_references(buf, cfg, rt60, pooled)


@pytest.mark.parametrize("rt60", [None, 0.9])
def test_both_paths_match_the_references_at_44k(pool, rt60):
    # the default 2048/128 configuration over 12 blocks, blind and given
    fs = 44100
    rng = np.random.default_rng(11)
    t = np.arange(fs * 11 // 4) / fs
    x = rng.standard_normal(t.size) * np.exp(-4.0 * t)
    x[fs:fs + fs // 3] = 0.0  # dead frames inside the grid
    buf = AudioBuffer(x, fs)
    cfg = DereverbConfig(stft=default_stft_config(fs))
    tasks = pool.tasks
    pooled = _passes(buf, cfg, rt60)
    assert pool.tasks > tasks
    assert _same(pooled, _in_a_worker(_passes, buf, cfg, rt60))
    assert pool.foreign == 0
    assert not isinstance(pooled["rr"], str) and not isinstance(pooled["estimate_rt60"], str)
    _check_against_references(buf, cfg, rt60, pooled)


def test_threads_get_the_single_thread_results(pool):
    # four worker threads (tasks in the caller) and the main thread (pooled)
    # run every pass at once under a 10 us switch interval
    cfg = DereverbConfig(stft=default_stft_config(8000))
    rng = np.random.default_rng(9)
    inputs = [AudioBuffer(rng.standard_normal(n) * np.exp(-np.arange(n) / 3000.0), 8000)
              for n in (21_000, 9_000, 30_000, 14_000)]
    rt60s = [None, 0.7, 1.2, None]
    want = [_passes(buf, cfg, rt60) for buf, rt60 in zip(inputs, rt60s)]
    start = threading.Barrier(len(inputs) + 1)
    wrong, done = [], []

    def worker(i: int) -> None:
        start.wait(timeout=30)
        for _ in range(4):
            if not _same(_passes(inputs[i], cfg, rt60s[i]), want[i]):
                wrong.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        start.wait(timeout=30)
        tasks = pool.tasks
        for _ in range(2):
            for i in range(len(inputs)):
                if not _same(_passes(inputs[i], cfg, rt60s[i]), want[i]):
                    wrong.append(("main", i))
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(len(inputs))) and not wrong
    assert pool.tasks > tasks and pool.foreign == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 7), st.sampled_from(["pool", "one CPU", "a worker"]))
def test_halves_returns_both_halves(pool, n, where):
    # only a split of two or more items on the main thread, with a pool,
    # hands the pool a task: the helper's half, while the caller runs its own
    items, ran = list(range(10, 10 + n)), []

    def double(half):
        ran.append((half, threading.current_thread()))
        return [2 * x for x in half]

    tasks = pool.tasks
    with pytest.MonkeyPatch.context() as patch:
        if where == "one CPU":
            patch.setattr(core, "_pool", None)
            patch.setattr(core, "_usable_cpus", lambda: 1)
        if where == "a worker":
            got, caller = _in_a_worker(lambda: (_halves(double, items), threading.current_thread()))
        else:
            got, caller = _halves(double, items), threading.current_thread()
    assert got == ([2 * x for x in items[::2]], [2 * x for x in items[1::2]])
    pooled = where == "pool" and n >= 2
    assert pool.tasks - tasks == pooled and pool.foreign == 0
    in_caller = [half for half, thread in ran if thread is caller]
    elsewhere = [half for half, thread in ran if thread is not caller]
    if pooled:
        assert in_caller == [items[::2]] and elsewhere == [items[1::2]]
    else:  # the helper's half first
        assert in_caller == [items[1::2], items[::2]] and not elsewhere


def test_a_pass_waits_for_its_helper_task_before_it_raises(pool):
    finished = threading.Event()

    def half(items):
        if items == [1]:  # the helper's half
            time.sleep(0.2)
            finished.set()
        else:
            raise KeyError("the caller's own half failed")

    tasks = pool.tasks
    with pytest.raises(KeyError):
        _halves(half, [0, 1])
    assert finished.is_set() and pool.tasks == tasks + 1


@pytest.mark.parametrize("where", ["one item", "one CPU", "a worker"])
def test_without_a_pool_the_caller_runs_both_halves(pool, monkeypatch, where):
    # one item, a process with one usable CPU and a worker thread hand the
    # pool no task: the caller runs the helper's half first, then its own,
    # and a failing helper's half stops the split before the caller's runs
    if where == "one CPU":
        monkeypatch.setattr(core, "_pool", None)
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    items = [21] if where == "one item" else [21, 4]

    def run():
        tasks, ran = pool.tasks, []

        def double(half):
            ran.append((half, threading.current_thread()))
            return [2 * x for x in half]

        assert _halves(double, items) == ([42], [2 * x for x in items[1:]])
        me = threading.current_thread()
        assert ran == [(items[1::2], me), (items[::2], me)]
        ran.clear()

        def fail(half):
            ran.append(half)
            raise KeyError("the helper's half failed")

        with pytest.raises(KeyError, match="the helper's half failed"):
            _halves(fail, items)
        assert ran == [items[1::2]]
        assert pool.tasks == tasks

    if where == "a worker":
        _in_a_worker(run)
    else:
        run()


def test_an_empty_grid_fails_before_any_task(pool):
    # the schedules fill block 0 before their loops; an empty grid must
    # fail at the overlap-add check first, not with an IndexError
    cfg = default_stft_config(8000)
    grid = Spectrogram(np.zeros((cfg.num_bins, 0), np.complex128), cfg, 8000, 0)
    for run in (lambda: istft(grid), lambda: dereverberate(grid, rt60=0.5),
                lambda: dereverberate(grid)):
        for on in THREADS:
            with pytest.raises(InvalidArgumentError, match="cannot invert an empty spectrogram"):
                on(run)


def test_istft_hands_the_pool_no_task(pool):
    # with no shaping step istft's caller would only wait on the helper;
    # dereverberate shapes the same grid's blocks while the helper works
    fs = 8000
    buf = AudioBuffer(np.random.default_rng(3).standard_normal(3 * fs), fs)
    grid = stft(buf, default_stft_config(fs))
    assert grid.num_frames > BLOCK_FRAMES
    tasks = pool.tasks
    istft(grid)
    assert pool.tasks == tasks
    dereverberate(grid, rt60=0.5)
    assert pool.tasks > tasks


class _TracingPool:
    """A pool stand-in that runs each task in the submitting thread, at
    once, and records the task's traced peak allocation."""

    def __init__(self):
        self.peaks = []

    def submit(self, fn, *args, **kwargs):
        task = Future()
        tracemalloc.start()
        try:
            task.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # handed back through the future, as a pool does
            task.set_exception(exc)
        finally:
            self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return task


def test_no_helper_task_holds_more_than_a_block(monkeypatch):
    # the helper allocates only its own block buffers and small temporaries:
    # the blind RT60 estimate's run-wide fit temporaries are the caller's,
    # and a 64-row block of the grid (64 bands of every frame, 3.5 MB here)
    # bounds any one task's peak
    buf, cfg, _ = _long_noise()
    grid = stft(buf, cfg.stft)
    clean = stft(_half_silent(buf), cfg.stft)
    t = np.arange(len(buf)) / buf.sample_rate
    tone = stft(AudioBuffer(np.sin(2 * np.pi * 1500.0 * t), buf.sample_rate), cfg.stft)
    block = BLOCK_FRAMES * grid.bins.nbytes // grid.num_bands
    passes = {"stft": lambda: stft(buf, cfg.stft), "estimate_rt60": lambda: estimate_rt60(grid),
              "blind dereverberate": lambda: dereverberate(buf, cfg), "lsd": lambda: lsd(clean, grid),
              "rr": lambda: rr(grid, grid, tone)}
    for name, run in passes.items():
        monkeypatch.setattr(core, "_pool", _TracingPool())
        run()
        assert core._pool.peaks, name
        assert max(core._pool.peaks) <= block, (name, max(core._pool.peaks) / block)


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_one_worker_bench_hands_the_pool_tasks(pool, workers):
    # one worker runs the rooms on the calling thread, here the main thread,
    # whose passes hand their helper tasks to the pool; two workers run
    # them on worker threads, which run their helper tasks themselves
    cfg = dataclasses.replace(TINY, rt60_values=(0.8,), rirs_per_rt=1, threads=workers)
    tasks = pool.tasks
    report = run_benchmark(cfg)
    assert len(report.rows) == 1 and report.errors == []
    assert (pool.tasks > tasks) == (workers == 1) and pool.foreign == 0


def test_an_error_on_the_helper_reaches_the_caller(pool, monkeypatch):
    fs = 8000
    buf = AudioBuffer(np.random.default_rng(2).standard_normal(3 * fs), fs)
    rfft = core._Frames.rfft

    def failing(self, s, out, buffer=None):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("helper failed")
        rfft(self, s, out, buffer)

    monkeypatch.setattr(core._Frames, "rfft", failing)
    for run in (lambda: stft(buf, default_stft_config(fs)), lambda: dereverberate(buf, rt60=0.5)):
        with pytest.raises(FloatingPointError, match="helper failed"):
            run()


def _metric_inputs():
    # 750 frames of 257 bands, most of them retained for the RT60 fit, and a
    # tone for clean reference, which leaves most bands silent for rr
    fs = 8000
    t = np.arange(3 * fs) / fs
    wet = stft(AudioBuffer(np.random.default_rng(4).standard_normal(t.size) * np.exp(-2.0 * t), fs),
               default_stft_config(fs))
    tone = stft(AudioBuffer(np.sin(2 * np.pi * 700.0 * t), fs), default_stft_config(fs))
    return {"lsd": (lsd, tone, wet), "rr": (rr, wet, wet, tone), "estimate_rt60": (estimate_rt60, wet)}


@pytest.mark.parametrize("metric", ["lsd", "rr", "estimate_rt60"])
@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_a_metric_raises_only_after_its_helper_half(pool, monkeypatch, metric, failing):
    # the helper's first block power fails after 0.2 s, or the caller's step
    # fails at once while the helper's is in its first block power: the
    # error reaches the caller, and nothing runs on the helper once it has.
    # The caller's step is a block power in lsd and rr, and in estimate_rt60
    # the decay fit of a block of retained bands (its caller gathers block
    # 0's power before any task, so that power must not fail)
    fn, *args = _metric_inputs()[metric]
    if metric == "estimate_rt60":
        assert _retained_bands(args[0]).size > BLOCK_FRAMES
    calls, finished = [], threading.Event()

    def slow(step, fails_on_caller: bool):
        def run(*a, **kw):
            on_helper = threading.current_thread() is not threading.main_thread()
            calls.append(on_helper)
            if on_helper:
                time.sleep(0.2)
                finished.set()
            if on_helper if failing == "helper" else fails_on_caller and not on_helper:
                raise FloatingPointError(f"{failing} failed")
            return step(*a, **kw)
        return run

    monkeypatch.setattr(metrics, "_power", slow(_power, True))
    monkeypatch.setattr(rt60, "_power", slow(_power, False))
    monkeypatch.setattr(rt60, "_fit_decays", slow(rt60._fit_decays, True))
    tasks = pool.tasks
    with pytest.raises(FloatingPointError, match=f"{failing} failed"):
        fn(*args)
    assert pool.tasks > tasks and finished.is_set()
    seen = len(calls)
    time.sleep(0.3)
    assert len(calls) == seen and any(calls) and not all(calls)


def test_one_cpu_or_another_thread_runs_inline(monkeypatch):
    monkeypatch.setattr(core, "_pool", None)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    assert core._helper() is None and core._pool is None
    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)
    assert _in_a_worker(core._helper) is None and core._pool is None
    made = core._helper()
    try:
        assert made is core._pool and made._max_workers == 1
        assert core._helper() is made
    finally:
        made.shutdown()


def _child(buf, cfg, results) -> None:
    out, _ = dereverberate(buf, cfg, rt60=0.6)
    results.put(out.samples.tobytes())


def test_a_forked_child_makes_its_own_pool(pool, monkeypatch):
    # without the fork hook, the child's first task would wait for a
    # helper thread that was never forked
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    fs = 8000
    buf = AudioBuffer(np.random.default_rng(6).standard_normal(4 * fs), fs)
    cfg = DereverbConfig(stft=default_stft_config(fs))
    tasks = pool.tasks
    want = dereverberate(buf, cfg, rt60=0.6)[0].samples.tobytes()
    assert pool.tasks > tasks  # the parent's pool has run tasks
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_child, args=(buf, cfg, results))
    child.start()
    try:
        got = results.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
    except queue.Empty:
        pytest.fail("the forked child did not finish")
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert got == want


AT_EXIT = '''
import atexit
import numpy as np
from sonolink.core import AudioBuffer, default_stft_config, istft, stft
from sonolink.dereverb import dereverberate

buf = AudioBuffer(np.random.default_rng(3).standard_normal(20_000), 8000)
cfg = default_stft_config(8000)

def passes():
    grid = stft(buf, cfg)
    out = dereverberate(buf, rt60=0.5)[0].samples
    print(hash(grid.bins.tobytes()), hash(istft(grid).samples.tobytes()), hash(out.tobytes()))

atexit.register(passes)
if {made}:
    passes()
'''


@pytest.mark.parametrize("made", [True, False])
def test_passes_run_in_an_atexit_callback(made):
    # after the interpreter has begun to exit, a made pool takes no task and
    # no pool can be made; the passes then run every block in the caller
    src = Path(core.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", AT_EXIT.format(made=made)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    lines = proc.stdout.split()
    assert len(lines) == 3 * (1 + made) and lines[:3] == lines[-3:]


def _channels(rate):
    """A channel of each kind: a RirSpec or a room as samples, each with an
    SNR or without, some peak-normalised, and the tasks each hands the pool
    on the main thread: one for each step with work for the helper, which
    a room given as samples with no SNR does not have."""
    spec = RirSpec(rt60=0.4, direct_gain=0.7, seed=5)
    room = synth_rir(RirSpec(rt60=0.3, seed=6), rate)
    return [(ChannelSpec(spec, snr_db=3.0, noise_seed=8), 2),
            (ChannelSpec(spec, snr_db=-5.0, normalize=0.5, noise_seed=9), 2),
            (ChannelSpec(spec, normalize=0.9), 1),
            (ChannelSpec(room, snr_db=10.0, noise_seed=1), 1),
            (ChannelSpec(room), 0)]


def _one_cpu(fn, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_pool", None)
        patch.setattr(core, "_usable_cpus", lambda: 1)
        return fn(*args)


@pytest.mark.parametrize("rate, n", [(8000, 5_000), (44100, 30_000), (8000, CAP)])
def test_apply_channel_gives_the_same_bytes_everywhere(pool, rate, n):
    # below the workspace cap and above it; the helper synthesises the room
    # in the first step and draws the noise in the second, and a room given
    # as samples with no noise leaves nothing for the helper
    signal = AudioBuffer(np.random.default_rng(n).standard_normal(n), rate)
    for chan, want_tasks in _channels(rate):
        want = _apply_channel_reference(signal, chan).samples.tobytes()
        tasks = pool.tasks
        assert apply_channel(signal, chan).samples.tobytes() == want
        assert pool.tasks - tasks == want_tasks, chan
        for where in (_in_a_worker, _one_cpu):
            assert where(apply_channel, signal, chan).samples.tobytes() == want
        assert pool.tasks - tasks == want_tasks and pool.foreign == 0


def test_a_synthesis_error_reaches_the_caller_after_both_halves(pool, monkeypatch):
    # a decay that zeroes the tail makes synthesis fail on the helper; the
    # caller transforms the signal meanwhile, and gets today's error once
    # both halves have ended, before the second step hands over a task
    signal = AudioBuffer(np.random.default_rng(1).standard_normal(20_000), 8000)
    chan = ChannelSpec(RirSpec(rt60=0.5, seed=2), snr_db=5.0)
    monkeypatch.setattr(simulate, "decay_constant", lambda rt60: np.inf)
    with pytest.raises(InvalidArgumentError, match="degenerate RIR tail") as direct:
        synth_rir(chan.rir, 8000)
    ended, synth, forward = [], simulate.synth_rir, core._Convolution.forward

    def slow_synth(*args):
        time.sleep(0.2)
        try:
            return synth(*args)
        finally:
            ended.append(("synthesis", threading.current_thread() is threading.main_thread()))

    def recorded_forward(self):
        forward(self)
        ended.append(("forward", threading.current_thread() is threading.main_thread()))

    monkeypatch.setattr(simulate, "synth_rir", slow_synth)
    monkeypatch.setattr(core._Convolution, "forward", recorded_forward)
    tasks = pool.tasks
    with pytest.raises(InvalidArgumentError) as got:
        apply_channel(signal, chan)
    assert str(got.value) == str(direct.value)
    assert ended == [("forward", True), ("synthesis", False)]
    assert pool.tasks == tasks + 1


@pytest.mark.parametrize("signal, chan, match", [
    (AudioBuffer(np.ones(4000), 8000), ChannelSpec(AudioBuffer(np.ones(50), 16000), snr_db=0.0),
     "sample-rate mismatch"),
    (AudioBuffer(np.zeros(0), 8000), ChannelSpec(RirSpec(rt60=0.3), snr_db=0.0),
     "non-empty inputs"),
    (AudioBuffer(np.zeros(0), 8000), ChannelSpec(AudioBuffer(np.ones(50), 8000)),
     "non-empty inputs"),
    (AudioBuffer(np.zeros(4000), 8000), ChannelSpec(RirSpec(rt60=0.3), snr_db=0.0),
     "SNR against a silent signal"),
    (AudioBuffer(np.zeros(4000), 8000), ChannelSpec(AudioBuffer(np.ones(50), 8000), snr_db=0.0),
     "SNR against a silent signal"),
    (AudioBuffer(np.ones(4000), 8000), ChannelSpec(RirSpec(rt60=1e-4, length=1e-4), snr_db=0.0),
     "under 2 samples"),
])
def test_apply_channel_checks_its_inputs_before_any_task(pool, monkeypatch, signal, chan, match):
    monkeypatch.setattr(simulate, "synth_rir", lambda *args: pytest.fail("synthesised"))
    tasks = pool.tasks
    with pytest.raises(InvalidArgumentError, match=match):
        apply_channel(signal, chan)
    assert pool.tasks == tasks


SLACK = 16_384  # bytes of small objects: the generators, their seeds, the task's frames


def test_the_channel_helper_allocates_only_the_room(monkeypatch):
    # the helper's first half allocates the synthesised response and its
    # envelope (AudioBuffer checks finiteness without a per-sample mask), and
    # its second, with an SNR, draws the noise straight into the caller's
    # result, so neither comes near a noise-sized array
    rate, spec = 44100, RirSpec(rt60=0.3, seed=3)
    signal = AudioBuffer(np.random.default_rng(4).standard_normal(4 * rate), rate)
    room = len(synth_rir(spec, rate))
    for snr_db in (0.0, None):
        monkeypatch.setattr(core, "_pool", _TracingPool())
        wet = apply_channel(signal, ChannelSpec(spec, snr_db=snr_db))
        synthesis, *noise = core._pool.peaks
        assert synthesis <= 16 * room + SLACK
        assert len(noise) == (snr_db is not None) and all(peak <= SLACK for peak in noise)
        assert 16 * room + SLACK < wet.samples.nbytes / 4
