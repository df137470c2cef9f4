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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, _check_fields, _sample_rate

__all__ = [
    "AudioBuffer",
    "StftConfig",
    "Spectrogram",
    "default_stft_config",
    "make_window",
    "stft",
    "as_spectrogram",
    "istft",
    "convolve",
]

# Frames per block in whole-grid passes.  At the 44.1 kHz default (1025
# bins) a complex block of 64 frames is 1 MB, small enough to stay in cache.
BLOCK_FRAMES = 64


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
        if self.samples.size and not np.isfinite(self.samples).all():
            raise InvalidArgumentError("AudioBuffer samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate

    def scaled(self, factor: float) -> "AudioBuffer":
        """Return a copy with samples multiplied by ``factor``."""
        return AudioBuffer(self.samples * float(factor), self.sample_rate)


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
        _check_fields(self, integers=("window_length", "hop"))
        if self.window_length < 2 or self.window_length % 2 != 0:
            raise InvalidArgumentError("window_length must be an even integer >= 2")
        if self.hop < 1:
            raise InvalidArgumentError("hop must be >= 1")
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


def make_window(length: int) -> np.ndarray:
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


def stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Forward short-time Fourier transform.

    Frame ``l`` covers samples ``[l*hop, l*hop + window_length)``; the final
    frames are zero-padded past the end of the signal so every sample is
    analyzed.  No padding is applied before the first sample.

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
    x = buf.samples
    win = cfg.window_length
    if x.size < win:
        raise InvalidArgumentError(
            f"buffer of {x.size} samples is shorter than one window ({win})"
        )
    n_frames = 1 + int(np.ceil((x.size - win) / cfg.hop))
    padded_len = (n_frames - 1) * cfg.hop + win
    if padded_len > x.size:
        x = np.concatenate([x, np.zeros(padded_len - x.size)])
    windows = np.lib.stride_tricks.sliding_window_view
    frames = windows(x, win)[:: cfg.hop]
    # A frame is live when one of the win/hop hop-long chunks it covers holds
    # a nonzero sample.  A dead frame's bins stay the zeros the grid starts
    # with (rfft would give zeros too, some of them -0), so only runs of
    # live frames are transformed.
    live_chunks = np.any(x.reshape(-1, cfg.hop), axis=1)
    live = np.any(windows(live_chunks, win // cfg.hop), axis=1)
    runs = np.flatnonzero(np.diff(live, prepend=False, append=False)).reshape(-1, 2)
    window = make_window(win)
    # frame-major, so each block of frames is one contiguous slab
    bins = np.zeros((n_frames, cfg.num_bins), dtype=np.complex128)
    windowed = np.empty((BLOCK_FRAMES, win))
    for start, stop in runs:
        for s in range(start, stop, BLOCK_FRAMES):
            n = min(BLOCK_FRAMES, stop - s)
            np.multiply(frames[s:s + n], window, out=windowed[:n])
            np.fft.rfft(windowed[:n], axis=1, out=bins[s:s + n])
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


def istft(spec: Spectrogram) -> AudioBuffer:
    """Inverse STFT via weighted overlap-add.

    Each frame is inverse-transformed, re-windowed, and accumulated; the
    result is normalized by the summed squared window so unmodified spectra
    reconstruct the original samples exactly wherever the window envelope is
    nonzero (everything except sample 0, where the Hann window is zero).
    The output is ``spec.num_samples`` long.
    """
    cfg = spec.config
    win = cfg.window_length
    n_frames = spec.num_frames
    if n_frames < 1:
        raise InvalidArgumentError("cannot invert an empty spectrogram")
    hop = cfg.hop
    overlap = win // hop  # frames covering each hop-long chunk of output
    window = make_window(win)
    # Output as [chunk, hop]: frame l covers chunks l .. l + overlap - 1, so
    # part r of every frame in a block lands on one run of consecutive
    # chunks.  Parts go in descending r so each sample sums its frames in
    # ascending frame order, as a frame-by-frame overlap-add does.
    out = np.zeros((n_frames + overlap - 1, hop))
    buffer = np.empty((BLOCK_FRAMES, win))
    for s in range(0, n_frames, BLOCK_FRAMES):
        block = spec.bins[:, s:s + BLOCK_FRAMES].T
        frames = np.fft.irfft(block, n=win, axis=1, out=buffer[: len(block)])
        frames *= window
        parts = frames.reshape(len(frames), overlap, hop)
        for r in range(overlap - 1, -1, -1):
            out[s + r:s + r + len(frames)] += parts[:, r]
    norm = np.zeros_like(out)
    win_sq = (window * window).reshape(overlap, hop)
    for r in range(overlap - 1, -1, -1):
        norm[r:r + n_frames] += win_sq[r]
    out = out.reshape(-1)
    norm = norm.reshape(-1)
    np.divide(out, norm, out=out, where=norm > 0.0)
    return AudioBuffer(out[: spec.num_samples], spec.sample_rate)


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


def convolve(signal: AudioBuffer, ir: AudioBuffer) -> AudioBuffer:
    """Full linear convolution of a signal with an impulse response.

    Output length is ``len(signal) + len(ir) - 1``.  It always takes numpy's
    real FFT at the smallest 5-smooth length that holds the output, which is
    ``scipy.signal.fftconvolve``'s arithmetic, so the two agree bit for bit;
    it agrees with the direct sum to ~1e-15 relative.
    """
    if signal.sample_rate != ir.sample_rate:
        raise InvalidArgumentError(
            f"sample-rate mismatch: {signal.sample_rate} vs {ir.sample_rate}"
        )
    if len(signal) == 0 or len(ir) == 0:
        raise InvalidArgumentError("convolve requires non-empty inputs")
    size = len(signal) + len(ir) - 1
    n = _fast_length(size)
    spectrum = np.fft.rfft(signal.samples, n)
    spectrum *= np.fft.rfft(ir.samples, n)
    out = np.fft.irfft(spectrum, n)[:size].copy()  # a view would keep the padded tail
    return AudioBuffer(out, signal.sample_rate)
