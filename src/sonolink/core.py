"""Sample-domain and STFT-domain primitives.

Everything downstream (modem, RT60 estimation, dereverberation, metrics)
speaks two currencies: :class:`AudioBuffer` for time-domain signals and
:class:`Spectrogram` for one-sided STFT grids.  The forward/inverse pair
implemented here uses a periodic Hann window with weighted overlap-add
resynthesis, so ``istft(stft(x))`` reproduces ``x`` on the interior to
floating-point accuracy for any hop that divides the window length.

Whole-grid work that needs temporaries runs over blocks of
:data:`BLOCK_FRAMES` frames written through preallocated buffers, so a pass
over a long recording's grid keeps its temporaries in cache instead of
allocating a grid-sized one per operation.  Each output element equals,
bit for bit, what a single pass over the whole grid would give.
:class:`_Frames` windows and transforms a recording's frames a block at a
time, and :func:`_overlap_add` resynthesises blocks of bins that it copies
from a grid or takes from those frames.  ``istft`` and the suppressor both
run that one pipeline; the suppressor shapes each block on the way, so it
needs no grid.  A silent frame (all its samples zero) is neither
transformed nor written: ``stft`` makes a grid with one as a zeroed
mapping of its own, so its silent rows never become resident, and only
such a grid, since one written whole would only take a page fault per
page for it.  ``tracemalloc`` does not count that mapping.

Each pass has one block schedule, in which a helper task works on other
blocks while the caller works on its own.  :func:`_halves` is the one way
to the helper: it splits a pass's items into halves, and the helper task
takes every other block (or other item) and the caller the rest, each
through block buffers of its own, writing only its own slots of the output
or returning a partial result that the caller combines exactly.  ``stft``
splits its blocks of frames, :func:`_band_peaks` (used by ``lsd``, ``rr``
and the blind RT60 estimator) its blocks of frames, ``metrics.lsd`` its
blocks of frames and its runs of active frames, and ``metrics.rr`` its two
grids' band energies.  :func:`_overlap_add` and ``rt60.estimate_rt60``
split each block's two steps instead, so the caller's step, which needs
the larger temporaries, always runs in the caller: :func:`_overlap_add`'s
caller shapes a block while the helper task transforms the one before it
and fills the one after it, and the estimator's caller fits a block of
retained bands' decay curves while the helper task builds the next
block's.  ``simulate.apply_channel`` splits the two steps of a
:class:`_Convolution`: the helper task synthesises a RirSpec's room while
the caller transforms the signal, and draws an SNR's noise into the result
while the caller transforms the room, multiplies and inverts, so every FFT
runs in the caller.  On the main thread of a process that may use more
than one CPU, a split of two or more items hands its helper task to a
one-thread helper pool, made by the first such split; anywhere else
(``sonolink bench``'s workers, one usable CPU, a one-block pass,
``istft``, interpreter exit) the caller runs it.  The bytes are the same either way, every thread holds
the helper task's block buffers, and no pass returns while the helper still
writes into one of its buffers.  A forked child drops the parent's pool and
makes its own.

:class:`_Convolution`, the one FFT convolution, writes its FFTs into a
workspace of the calling thread, two spectra kept between calls up to
:data:`_WORKSPACE_POINTS` points, so a stream of room convolutions does not
fault fresh pages in for every call.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _check_fields, _sample_rate

__all__ = [
    "AudioBuffer",
    "StftConfig",
    "Spectrogram",
    "default_stft_config",
    "stft",
    "as_spectrogram",
    "istft",
]

# Frames per block in whole-grid passes.  At the 44.1 kHz default (1025
# bins) a complex block of 64 frames is 1 MB, small enough to stay in cache.
BLOCK_FRAMES = 64

# FFT length up to which a convolution's buffers stay in its thread's
# workspace between calls: 2 * (n // 2 + 1) complex values, 4.2 MB at 2^18.
# Longer convolutions allocate and free their buffers on every call.
_WORKSPACE_POINTS = 1 << 18

_workspace = threading.local()

_pool = None  # the helper thread; made by the first pass that hands it work


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or the machine's CPU
    count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helper():
    """The one-thread helper pool for a pass on the main thread of a process
    that may use more than one CPU, made on first use; None otherwise."""
    global _pool
    if threading.current_thread() is not threading.main_thread():
        return None
    if _pool is None:
        if _usable_cpus() < 2:
            return None
        try:  # only a pass that uses the pool pays the import
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(1, thread_name_prefix="sonolink-helper")
        except RuntimeError:  # at interpreter exit (an atexit callback) no pool can start
            return None
    return _pool


def _drop_helper() -> None:
    """In a forked child: the parent's helper thread does not exist here."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


@dataclass(eq=False)
class AudioBuffer:
    """Mono audio signal: float64 samples plus a sample rate in Hz.

    Parameters
    ----------
    samples : array_like
        One-dimensional real sequence, nominal range [-1, 1].
    sample_rate : int
        Sampling frequency in Hz, > 0.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InvalidArgumentError("AudioBuffer samples must be one-dimensional")
        self.sample_rate = _sample_rate(self.sample_rate)
        # min and max propagate NaN and hold any infinity, with no per-sample mask
        if self.samples.size and not (np.isfinite(self.samples.min())
                                      and np.isfinite(self.samples.max())):
            raise InvalidArgumentError("AudioBuffer samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters for the STFT (always the periodic Hann window).

    ``hop`` must divide ``window_length`` (exact constant-overlap-add), and
    the window length must be even so the one-sided spectrum has
    ``window_length/2 + 1`` bins.
    """

    window_length: int
    hop: int

    def __post_init__(self):
        _check_fields(self, integers=("window_length", "hop"), positive=("hop",))
        if self.window_length < 2 or self.window_length % 2 != 0:
            raise InvalidArgumentError("window_length must be an even integer >= 2")
        if self.window_length % self.hop != 0:
            raise InvalidArgumentError(
                "hop must divide window_length for exact overlap-add reconstruction"
            )

    @property
    def num_bins(self) -> int:
        return self.window_length // 2 + 1

    def frame_period(self, sample_rate: int) -> float:
        """Seconds between adjacent frames."""
        return self.hop / sample_rate


def default_stft_config(sample_rate: int) -> StftConfig:
    """46 ms analysis window rounded to the nearest power of two, 93.75% overlap.

    At 44.1 kHz this yields a 2048-sample window with hop 128; at 48 kHz the
    nearest power of two is also 2048.
    """
    sample_rate = _sample_rate(sample_rate)
    window = int(2 ** round(np.log2(0.046 * sample_rate)))
    window = max(window, 32)
    return StftConfig(window_length=window, hop=window // 16)


@dataclass(eq=False)
class Spectrogram:
    """One-sided complex STFT grid.

    ``bins`` is indexed ``[k, l]`` with ``k`` the frequency bin and ``l`` the
    frame.  ``num_samples`` is the analyzed signal's length, at most the
    overlap-add extent ``(num_frames - 1) * hop + window_length``; the inverse
    transform trims the zero-padded tail to it.
    """

    bins: np.ndarray
    config: StftConfig
    sample_rate: int
    num_samples: int

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.ndim != 2:
            raise InvalidArgumentError("Spectrogram bins must be a 2-D grid")
        if self.bins.shape[0] != self.config.num_bins:
            raise InvalidArgumentError(
                f"bin count {self.bins.shape[0]} does not match "
                f"window_length {self.config.window_length} (expected {self.config.num_bins})"
            )
        self.sample_rate = _sample_rate(self.sample_rate)
        _check_fields(self, integers=("num_samples",))
        extent = (self.num_frames - 1) * self.config.hop + self.config.window_length
        if not 0 <= self.num_samples <= extent:
            raise InvalidArgumentError(
                f"num_samples must be in [0, {extent}], got {self.num_samples}"
            )

    @property
    def num_bands(self) -> int:
        return self.bins.shape[0]

    @property
    def num_frames(self) -> int:
        return self.bins.shape[1]

    def power(self) -> np.ndarray:
        """Per-bin power envelope |X(k,l)|^2."""
        return _power(self.bins)


def _power(bins: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|bins|^2 in float64, written into ``out`` when it is given."""
    out = np.abs(bins, out=out, dtype=np.float64)
    return np.square(out, out=out)


def _halves(fn, items):
    """(fn(items[::2]), fn(items[1::2])).  With two or more items the second
    half goes to :func:`_helper`'s pool, when there is one, while the caller
    runs the first; otherwise, or when the pool refuses it because
    interpreter exit has begun, the caller runs the second half first.  It
    never returns or raises while the helper still runs its half, so each
    half may write into buffers and slots of its own."""
    pool = _helper() if len(items) > 1 else None
    try:
        task = pool.submit(fn, items[1::2]) if pool is not None else None
    except RuntimeError:  # the pool takes no tasks once interpreter exit has begun
        task = None
    if task is None:
        other = fn(items[1::2])
        return fn(items[::2]), other
    try:
        return fn(items[::2]), task.result()
    finally:
        task.exception()  # waits for the helper's half; an exception already raised goes on


def _band_peaks(bins: np.ndarray) -> np.ndarray:
    """Each band's peak power over a [bands, frames] grid.  Each half of the
    blocks of frames writes |X| of a block into a reused buffer of its own,
    and the halves' maxima are combined, which is exact.  Only the per-band
    maxima are squared: rounding a square is monotone, so max fl(a²) =
    fl(max a)²."""
    def peaks_of(starts) -> np.ndarray:
        peaks = np.zeros(bins.shape[0])
        mags = np.empty((BLOCK_FRAMES, bins.shape[0])).T
        for s in starts:
            block = bins[:, s:s + BLOCK_FRAMES]
            block = np.abs(block, out=mags[:, : block.shape[1]], dtype=np.float64)
            np.maximum(peaks, block.max(axis=1), out=peaks)
        return peaks

    peaks, other = _halves(peaks_of, range(0, bins.shape[1], BLOCK_FRAMES))
    np.maximum(peaks, other, out=peaks)
    return np.square(peaks, out=peaks)


def _blocks(mask: np.ndarray):
    """(start, stop) of each run of True in ``mask``, cut at most BLOCK_FRAMES long."""
    for a, b in np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2):
        for s in range(a, b, BLOCK_FRAMES):
            yield s, min(s + BLOCK_FRAMES, b)


def _make_window(length: int) -> np.ndarray:
    """Periodic Hann window of the given length.

    Parameters
    ----------
    length : int
        Number of samples, >= 2.

    Returns
    -------
    np.ndarray
        ``0.5 * (1 - cos(2*pi*n/length))`` for n = 0..length-1; w[0] = 0 and
        shifted copies at any hop dividing ``length`` sum to a constant.
    """
    if length < 2:
        raise InvalidArgumentError("window length must be >= 2")
    n = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / length))


class _Frames:
    """A signal's STFT frames, windowed and transformed a block at a time.

    Only the last frame can run past the end of the signal, so only it is
    zero-padded, in a copy.  A frame is live when one of the win/hop
    hop-long chunks it covers holds a nonzero sample.  A dead frame's bins
    are zeros (rfft would give zeros too, some of them -0), so only runs of
    live frames are transformed.
    """

    def __init__(self, x: np.ndarray, cfg: StftConfig):
        win, hop = cfg.window_length, cfg.hop
        if x.size < win:
            raise InvalidArgumentError(
                f"buffer of {x.size} samples is shorter than one window ({win})")
        self.n_frames = n = 1 + -(-(x.size - win) // hop)
        windows = np.lib.stride_tricks.sliding_window_view
        self.frames = windows(x, win)[::hop][: n - 1]
        self.last = np.zeros(win)
        self.last[: x.size - (n - 1) * hop] = x[(n - 1) * hop:]
        chunks = np.concatenate([np.any(x[: (n - 1) * hop].reshape(n - 1, hop), axis=1),
                                 np.any(self.last.reshape(-1, hop), axis=1)])
        self.live = np.any(windows(chunks, win // hop), axis=1)
        self.window = _make_window(win)

    def buffer(self) -> np.ndarray:
        """A block buffer for :meth:`rfft` to window frames into."""
        return np.empty((BLOCK_FRAMES, self.window.size))

    def rfft(self, s: int, out: np.ndarray, buffer: np.ndarray) -> None:
        """The bins of the live frames among s .. s + len(out) - 1 into
        ``out``, a frame per row.  The rows of dead frames are left as they
        are, so ``out`` must hold zeros there: ``stft``'s zeroed grid does,
        and a reused block buffer is zeroed there by its caller, never here,
        so a silent row of the grid is never touched.  The frames are
        windowed into ``buffer``, one of :meth:`buffer`'s."""
        last = self.n_frames - 1 - s  # the last frame's row, if out holds it
        for a, b in _blocks(self.live[s:s + len(out)]):
            windowed, inside = buffer[: b - a], min(b, last)
            np.multiply(self.frames[s + a:s + inside], self.window, out=windowed[: inside - a])
            if b > last:
                np.multiply(self.last, self.window, out=windowed[-1])
            np.fft.rfft(windowed, axis=1, out=out[a:b])


def _zeroed(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed array in a private anonymous mapping of its own, which the
    OS hands over zeroed and takes back whole when the array is freed; a
    page never written is never made resident.  ``np.zeros`` where ``mmap``
    has no such mapping (Windows)."""
    try:
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    except AttributeError:
        return np.zeros(shape, dtype)
    nbytes = shape[0] * shape[1] * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), dtype).reshape(shape)


def stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Forward short-time Fourier transform.

    Frame ``l`` covers samples ``[l*hop, l*hop + window_length)``; the final
    frame is zero-padded past the end of the signal so every sample is
    analyzed.  No padding is applied before the first sample.

    A frame whose samples are all zero is not transformed, and its row of
    the grid is never written.  A grid with such a frame is a zeroed
    mapping of its own (:func:`_zeroed`), so its silent rows cost no
    resident memory, even when ``lsd`` or ``rr`` reads them, and a
    zero-padded signal's grid costs about its live frames.  ``tracemalloc``
    does not count that mapping.  A grid with no silent frame is written
    whole and comes from ``np.empty``: mapping it too would only add a page
    fault per page of every fresh grid (on 2 CPUs the benchmark's ``sweep``
    items ran about 16% slower so).  ``np.zeros`` would not do for a grid
    with silent frames: it hands out recycled heap memory and writes its
    zeros there.

    Parameters
    ----------
    buf : AudioBuffer
        Signal to analyze; must be at least one window long.
    cfg : StftConfig
        Window/hop configuration.

    Returns
    -------
    Spectrogram
        One-sided spectrum, ``window_length//2 + 1`` bins per frame.
    """
    frames = _Frames(buf.samples, cfg)
    # frame-major, so a block of frames is one slab
    allocate = np.empty if frames.live.all() else _zeroed
    bins = allocate((frames.n_frames, cfg.num_bins), np.complex128)

    def transform(starts) -> None:
        windowed = frames.buffer()
        for s in starts:
            frames.rfft(s, bins[s:s + BLOCK_FRAMES], windowed)

    _halves(transform, range(0, frames.n_frames, BLOCK_FRAMES))
    return Spectrogram(bins=bins.T, config=cfg, sample_rate=buf.sample_rate,
                       num_samples=buf.samples.size)


def as_spectrogram(buf: AudioBuffer | Spectrogram, cfg: StftConfig | None = None) -> Spectrogram:
    """The STFT grid of a recording, or a grid already computed from one.

    A recording is analyzed with ``cfg`` (default: the 46 ms configuration
    for its rate).  A spectrogram is returned as it is; a ``cfg`` that is
    set must then equal its configuration.
    """
    if isinstance(buf, Spectrogram):
        if cfg is not None and cfg != buf.config:
            raise InvalidArgumentError("the STFT configuration does not match the spectrogram's")
        return buf
    return stft(buf, cfg or default_stft_config(buf.sample_rate))


class _OverlapAdd:
    """Weighted overlap-add of a grid's frames, given a block at a time in
    frame order, held as [chunk, hop].  Frame l covers chunks l .. l +
    overlap - 1, so part r of every frame in a block lands on one run of
    consecutive chunks.  Parts go in descending r so each sample sums its
    frames in ascending frame order, as a frame-by-frame overlap-add does.
    """

    def __init__(self, cfg: StftConfig, n_frames: int):
        if n_frames < 1:
            raise InvalidArgumentError("cannot invert an empty spectrogram")
        self.n_frames, self.overlap = n_frames, cfg.window_length // cfg.hop
        self.window = _make_window(cfg.window_length)
        self.out = np.zeros((n_frames + self.overlap - 1, cfg.hop))
        self.frames = np.empty((BLOCK_FRAMES, cfg.window_length))

    def transform(self, bins: np.ndarray) -> np.ndarray:
        """A block's windowed frames, from their bins (a frame per row), in
        the first len(bins) rows of this sum's frame buffer."""
        frames = np.fft.irfft(bins, n=self.window.size, axis=1, out=self.frames[: len(bins)])
        frames *= self.window
        return frames

    def accumulate(self, s: int, frames: np.ndarray) -> None:
        """Adds windowed frames s .. s + len(frames) - 1 into the sum."""
        parts = frames.reshape(len(frames), self.overlap, -1)
        for r in range(self.overlap - 1, -1, -1):
            self.out[s + r:s + r + len(frames)] += parts[:, r]

    def samples(self, num_samples: int) -> np.ndarray:
        """The first num_samples samples, divided (once, in place) by the
        summed squared window wherever that is nonzero."""
        overlap, n = self.overlap, self.n_frames
        # Chunk c sums squared-window rows r with c - n < r <= c, in
        # descending r.  A grid of m = min(n, overlap) frames has every
        # distinct sum: its first m - 1 chunks, its chunk m - 1 (every middle
        # chunk's sum) and its last overlap - 1 chunks.
        m = min(n, overlap)
        win_sq = (self.window * self.window).reshape(overlap, -1)
        norm = np.zeros((m + overlap - 1, win_sq.shape[1]))
        for r in range(overlap - 1, -1, -1):
            norm[r:r + m] += win_sq[r]
        out = self.out
        for part, by in (out[:m - 1], norm[:m - 1]), (out[m - 1:n], norm[m - 1]), (out[n:], norm[m:]):
            np.divide(part, by, out=part, where=by > 0.0)
        return self.out.reshape(-1)[:num_samples]


def _overlap_add(cfg: StftConfig, n_frames: int, num_samples: int, fill, dtype,
                 shape=None) -> np.ndarray:
    """The first num_samples samples of the weighted overlap-add of
    n_frames frames.  ``fill(s, rows)`` writes the bins of frames s .. s +
    len(rows) - 1 into ``rows``, a frame per row of a block buffer of
    ``dtype``, and ``shape(s, rows)``, when given, then changes them in place.

    The caller shapes block k while the helper transforms block k - 1 and
    fills block k + 1 (:func:`_halves` of the two steps); then the caller
    accumulates block k - 1, so every sample sums its frames in frame order.
    It holds two blocks of bins.  Without a shaping step the caller runs
    every step itself: it would only wait while the helper did every
    transform.  A one-block pass has no step to run ahead.
    """
    ola = _OverlapAdd(cfg, n_frames)
    starts = range(0, n_frames, BLOCK_FRAMES)
    buffers = [np.empty((BLOCK_FRAMES, cfg.num_bins), dtype) for _ in range(2)]
    windowed = None

    def rows(k: int) -> np.ndarray:
        return buffers[k % 2][: min(BLOCK_FRAMES, n_frames - starts[k])]

    def ahead(k: int) -> None:
        nonlocal windowed
        # k - 1's bins are read before k + 1's overwrite their buffer
        windowed = ola.transform(rows(k - 1)) if k else None
        if k + 1 < len(starts):
            fill(starts[k + 1], rows(k + 1))

    def shaped(k: int) -> None:
        shape(starts[k], rows(k))

    if shape is None:
        steps = [ahead]
    else:
        steps = [shaped, ahead] if len(starts) > 1 else [shaped]
    fill(0, rows(0))
    for k in range(len(starts)):
        _halves(lambda fns: [fn(k) for fn in fns], steps)
        if k:
            ola.accumulate(starts[k - 1], windowed)
    ola.accumulate(starts[-1], ola.transform(rows(len(starts) - 1)))
    return ola.samples(num_samples)


def istft(spec: Spectrogram) -> AudioBuffer:
    """Inverse STFT via weighted overlap-add.

    Each frame is inverse-transformed, re-windowed, and accumulated; the
    result is normalized by the summed squared window so unmodified spectra
    reconstruct the original samples exactly wherever the window envelope is
    nonzero (everything except sample 0, where the Hann window is zero).
    The output is ``spec.num_samples`` long.  The frames are transformed
    in double precision whatever the grid's precision.
    """
    def fill(s: int, rows: np.ndarray) -> None:
        np.copyto(rows, spec.bins[:, s:s + len(rows)].T)

    samples = _overlap_add(spec.config, spec.num_frames, spec.num_samples, fill,
                           np.result_type(spec.bins, np.float64))
    return AudioBuffer(samples, spec.sample_rate)


def _fast_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, as ``scipy.fft.next_fast_len(n, True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_buffers(n: int):
    """The two spectra of n // 2 + 1 complex values of an n-point real FFT
    convolution.  For n <= _WORKSPACE_POINTS they are views of the calling
    thread's workspace, grown to the largest n asked for; its contents are
    whatever the last user left.  Above that, each is None, so numpy
    allocates and frees it as it goes."""
    if n > _WORKSPACE_POINTS:
        return None, None
    m = n // 2 + 1
    work = getattr(_workspace, "buffer", None)
    if work is None or work.size < 2 * m:
        work = _workspace.buffer = np.empty(2 * m, np.complex128)
    return work[:m], work[m:2 * m]


class _Convolution:
    """The full linear convolution of ``signal`` with an impulse response of
    ``ir_length`` samples at ``ir_rate``, in two steps: :meth:`forward`
    transforms the signal, and :meth:`inverse` the impulse response, which
    it then multiplies in and inverts.  Its caller may run other work
    between them, or hand the helper work while each runs; both must run on
    one thread, whose workspace holds the spectra.  The checks run when it
    is made, before either step.  It takes numpy's real FFT at the smallest
    5-smooth length that holds the output, as ``scipy.signal.fftconvolve``
    does, so the two agree bit for bit (unless an input is one sample long:
    scipy multiplies that directly)."""

    def __init__(self, signal: AudioBuffer, ir_length: int, ir_rate: int):
        if signal.sample_rate != ir_rate:
            raise InvalidArgumentError(
                f"sample-rate mismatch: {signal.sample_rate} vs {ir_rate}"
            )
        if len(signal) == 0 or ir_length == 0:
            raise InvalidArgumentError("a convolution requires non-empty inputs")
        self.signal = signal
        self.size = len(signal) + ir_length - 1
        self.n = _fast_length(self.size)

    def forward(self) -> None:
        spectrum, self.ir_spectrum = _fft_buffers(self.n)
        self.spectrum = np.fft.rfft(self.signal.samples, self.n, out=spectrum)

    def inverse(self, ir: AudioBuffer) -> np.ndarray:
        """The convolution's samples, in the workspace until the thread's
        next convolution (a fresh array above the cap).  The impulse
        response's spectrum is dead once multiplied in, so the inverse
        transform writes its n real values over it, at either size."""
        ir_spectrum = np.fft.rfft(ir.samples, self.n, out=self.ir_spectrum)
        self.spectrum *= ir_spectrum
        real = ir_spectrum.view(np.float64)[:self.n]
        return np.fft.irfft(self.spectrum, self.n, out=real)[:self.size]

    def scratch(self) -> np.ndarray:
        """``size`` float64 values in the signal's spectrum, free once
        :meth:`inverse` has returned."""
        return self.spectrum.view(np.float64)[:self.size]
