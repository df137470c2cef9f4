"""The per-thread convolution workspace: ``apply_channel``, with a room
given as samples and no noise or with a RirSpec, an SNR and a peak target,
gives the bits it gave with fresh buffers, results never share memory with
the workspace, threads do not see each other's buffers, and a convolution
above the cap leaves no workspace memory behind."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from sonolink import core
from sonolink.core import _WORKSPACE_POINTS, AudioBuffer, _fast_length
from sonolink.errors import InvalidArgumentError
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel, synth_rir

CAP = _WORKSPACE_POINTS
RATE = 8000


def _signal(rng, n: int) -> AudioBuffer:
    return AudioBuffer(rng.standard_normal(n), RATE)


def _convolve(signal: AudioBuffer, ir: AudioBuffer) -> AudioBuffer:
    """The channel of a room given as samples, with no noise: one convolution."""
    return apply_channel(signal, ChannelSpec(rir=ir))


def _apply_channel_reference(signal: AudioBuffer, chan: ChannelSpec) -> AudioBuffer:
    """``apply_channel`` with a fresh array for every step, and
    ``fftconvolve`` (the same arithmetic as ``core._Convolution``) for the room."""
    rir = chan.rir
    if isinstance(rir, RirSpec):
        rir = synth_rir(rir, signal.sample_rate)
    out = AudioBuffer(scipy.signal.fftconvolve(signal.samples, rir.samples), signal.sample_rate)
    if chan.snr_db is not None:
        squares = np.square(out.samples)
        signal_power = float(np.mean(squares))
        if signal_power == 0.0:
            raise InvalidArgumentError("cannot set an SNR against a silent signal")
        noise = np.random.default_rng(chan.noise_seed).standard_normal(len(out))
        noise_power = float(np.mean(np.square(noise, out=squares)))
        target_power = signal_power * 10.0 ** (-chan.snr_db / 10.0)
        noise *= np.sqrt(target_power / noise_power)
        out = AudioBuffer(np.add(out.samples, noise, out=noise), out.sample_rate)
    if chan.normalize is not None:
        peak = float(np.max(np.abs(out.samples)))
        if peak == 0.0:
            raise InvalidArgumentError("cannot peak-normalize a silent signal")
        out = AudioBuffer(out.samples * (chan.normalize / peak), out.sample_rate)
    return out


# (signal, ir) lengths: outputs below the cap, and from its edge to above it.
# Both are at least 2: fftconvolve multiplies a 1-sample input directly.
SMALL = st.tuples(st.integers(2, CAP - 2000), st.integers(2, 2000))
LARGE = st.tuples(st.integers(CAP - 999, CAP + 40_000), st.integers(1000, 3000))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.tuples(SMALL, LARGE, SMALL, LARGE, SMALL), st.integers(0, 2**32 - 1))
def test_convolve_equals_fftconvolve_across_the_cap(lengths, seed):
    rng = np.random.default_rng(seed)
    for signal_len, ir_len in lengths:  # small, large, small, large, small in turn
        a, b = _signal(rng, signal_len), _signal(rng, ir_len)
        want = scipy.signal.fftconvolve(a.samples, b.samples)
        assert np.array_equal(_convolve(a, b).samples, want), (signal_len, ir_len)


def test_results_stay_unchanged_and_share_no_memory():
    rng = np.random.default_rng(3)
    calls = [(200_000, 900), (5_000, 300), (CAP, 4_000), (150_000, 2_000), (60, 7)]
    inputs = [(_signal(rng, n), _signal(rng, m)) for n, m in calls]
    results, copies = [], []
    for a, b in inputs:
        out = _convolve(a, b)
        results.append(out.samples)
        copies.append(out.samples.copy())
        chan = ChannelSpec(RirSpec(rt60=0.3, seed=len(a)), snr_db=5.0, normalize=0.5)
        wet = apply_channel(a, chan)
        results.append(wet.samples)
        copies.append(wet.samples.copy())
    work = core._workspace.buffer
    for got, want in zip(results, copies):
        assert np.array_equal(got, want)  # later calls wrote only the workspace
        assert got.flags.owndata and not np.may_share_memory(got, work)


@pytest.mark.parametrize("snr_db", [None, -5.0, 10.0])
@pytest.mark.parametrize("normalize", [None, 0.5])
@pytest.mark.parametrize("n", [12_000, CAP + 10])  # below the cap and above it
def test_apply_channel_equals_the_fresh_array_reference(n, snr_db, normalize):
    rng = np.random.default_rng(n)
    signal = _signal(rng, n)
    for rt60, seed in ((0.3, 1), (0.6, 2)):
        chan = ChannelSpec(RirSpec(rt60=rt60, seed=seed), snr_db=snr_db, normalize=normalize,
                           noise_seed=seed)
        want = _apply_channel_reference(signal, chan)
        got = apply_channel(signal, chan)
        assert np.array_equal(got.samples, want.samples)
        assert not np.may_share_memory(got.samples, signal.samples)


def test_threads_get_the_single_thread_results():
    rng = np.random.default_rng(5)
    lengths = [(90_000, 1_500), (30_000, 700), (150_000, 3_000), (7_000, 60)]
    inputs = [(_signal(rng, n), _signal(rng, m)) for n, m in lengths]
    want = [_convolve(a, b).samples for a, b in inputs]
    start = threading.Barrier(len(inputs))
    wrong, done = [], []

    def worker(i: int) -> None:
        a, b = inputs[i]
        start.wait(timeout=30)
        for _ in range(15):
            if not np.array_equal(_convolve(a, b).samples, want[i]):
                wrong.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(len(inputs))) and not wrong


def test_no_workspace_memory_remains_above_the_cap():
    rng = np.random.default_rng(7)
    ir = _signal(rng, 1_000)
    large = _signal(rng, CAP - 998)  # an output one sample past the cap
    small = _signal(rng, 100_000)
    _convolve(small, ir)  # numpy.fft imports its modules on first use
    traced = {}

    def measure() -> None:  # a fresh thread starts with no workspace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = _convolve(large, ir)
            del out
            traced["large"] = tracemalloc.get_traced_memory()[0] - before
            out = _convolve(small, ir)
            del out
            traced["small"] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=measure)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert traced["large"] < 16_384
    # the same measure sees the workspace a convolution under the cap keeps
    assert traced["small"] >= 2 * (_fast_length(100_999) // 2 + 1) * 16


def test_the_workspace_is_two_spectra():
    rng = np.random.default_rng(8)
    signal, ir = _signal(rng, 100_000), _signal(rng, 1_000)
    _convolve(signal, ir)  # numpy.fft imports its modules on first use
    n = _fast_length(100_999)
    traced = {}

    def measure() -> None:  # a fresh thread starts with no workspace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _convolve(signal, ir)
            traced["held"] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=measure)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    spectra = 2 * (n // 2 + 1) * 16
    assert spectra <= traced["held"] < spectra + 1024  # the array object and its slot


@pytest.mark.parametrize("signal_len", [5_000, CAP + 10])  # below the cap and above it
def test_the_inverse_writes_over_the_rooms_spectrum(monkeypatch, signal_len):
    rng = np.random.default_rng(signal_len)
    signal, ir = _signal(rng, signal_len), _signal(rng, 300)
    conv = core._Convolution(signal, len(ir), RATE)
    conv.forward()
    spectra = {}
    rfft = np.fft.rfft

    def recording_rfft(x, n, out=None):
        spectrum = rfft(x, n, out=out)
        spectra.setdefault("room", spectrum)  # the one transform inverse() takes
        return spectrum

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    out = conv.inverse(ir)
    assert np.shares_memory(out, spectra["room"])
    assert not np.shares_memory(out, conv.scratch())
    assert np.array_equal(out, scipy.signal.fftconvolve(signal.samples, ir.samples))
