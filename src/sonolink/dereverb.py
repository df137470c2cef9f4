"""Late-reverberation suppression by spectral subtraction.

The late-reverberant power at frame l is modeled as a delayed, attenuated
copy of the smoothed signal power one prediction delay earlier; the ratio
of observed power to that estimate drives a floored spectral gain applied
to the STFT magnitudes (phase untouched).  The decay constant comes from an
RT60 figure — supplied by the caller or estimated blindly from the input.

:func:`dereverberate` runs one pass over blocks of frames, from STFT frames
to overlap-add, holding no power, PSD or gain grid.  Given an RT60 it holds
no complex grid either (a caller's grid is copied a block at a time); blind,
it holds the grid its RT60 estimate reads.  :func:`reverberant_psd` and
:func:`spectral_gain` run the same block steps over whole grids.

The pass is the overlap-add pipeline that ``istft`` runs too
(:func:`sonolink.core._overlap_add`).  The pipeline fills each block with an
rfft from the recording or a copy from the grid, this module shapes it
(power, late PSD, gain, multiply), and the pipeline resynthesises it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (BLOCK_FRAMES, AudioBuffer, Spectrogram, StftConfig, _Frames, _overlap_add,
                   _power, as_spectrogram, default_stft_config)
from .errors import EstimationError, InvalidArgumentError, _positive, _real
from .rt60 import estimate_rt60

__all__ = [
    "DereverbConfig",
    "ReverbModel",
    "GainGrid",
    "DereverbDiagnostics",
    "decay_constant",
    "reverberant_psd",
    "spectral_gain",
    "dereverberate",
]

FALLBACK_RT60 = 0.5  # used when blind estimation fails outright


def decay_constant(rt60: float) -> float:
    """Exponential decay constant of a room with the given RT60.

    Defined so the energy envelope e^(-2*delta*t) falls by 60 dB over one
    reverberation time: delta = 3*ln(10)/rt60.
    """
    return 3.0 * math.log(10.0) / _positive(_real(rt60, "rt60"), "rt60")


@dataclass
class ReverbModel:
    """Exponential-decay room model parameterized by reverberation time."""

    rt60: float
    delta: float = field(init=False)

    def __post_init__(self):
        self.delta = decay_constant(self.rt60)


@dataclass(frozen=True)
class DereverbConfig:
    """Analysis configuration of the suppressor, and its fixed tuning.

    stft
        Analysis configuration; None selects the 46 ms default for the
        buffer's sample rate.

    The tuning is fixed, as class constants:

    late_delay
        Prediction delay in seconds separating direct sound from the late
        reverberation modeled here (also the PSD look-back distance).
    snr_smoothing
        Exponential smoothing factor for the a-priori SNR recursion.
    gain_floor
        Lower bound on the spectral gain; keeps residual signal audible and
        bounds the worst-case attenuation.
    snr_ceiling
        Cap on the rectified instantaneous SNR before smoothing.  In bins
        that were near-silent the reverberant PSD estimate is vanishingly
        small, so a sudden onset measures an SNR of 10^9 or more; smoothed,
        such a spike would hold the gain open for hundreds of frames after
        the signal stops.  The cap bounds that release time while leaving
        the gain within 1 - 1/sqrt(1 + ceiling) of unity for strong bins.
    """

    stft: StftConfig | None = None

    late_delay: ClassVar[float] = 0.080
    snr_smoothing: ClassVar[float] = 0.9
    gain_floor: ClassVar[float] = 0.1
    snr_ceiling: ClassVar[float] = 30.0

    def delay_frames(self, frame_period: float) -> int:
        """Prediction delay rounded to whole frames, at least one."""
        return max(1, round(self.late_delay / frame_period))


@dataclass
class GainGrid:
    """Spectral gain per bin and frame, in [gain_floor, 1]."""

    gain: np.ndarray


@dataclass
class DereverbDiagnostics:
    """What the suppressor did: the RT60 it used, how it got it, and its
    mean spectral gain over every bin and frame."""

    rt60: float
    rt60_estimated: bool
    rt60_fallback: bool
    mean_gain: float


class _LatePsd:
    """The late-PSD model over consecutive blocks of frames: ``frames`` holds
    the last delay_frames + 1 frames of power, then the block's, frame-major."""

    def __init__(self, n_bands: int, model: ReverbModel, cfg: DereverbConfig, frame_period: float):
        self.shift = cfg.delay_frames(frame_period)
        self.attenuation = math.exp(-2.0 * model.delta * cfg.late_delay)
        self.frames = np.zeros((self.shift + 1 + BLOCK_FRAMES, n_bands)).T
        self.block = self.frames[:, self.shift + 1:]  # the block's power goes here

    def step(self, start: int, out: np.ndarray) -> None:
        """The late PSD of the ``out.shape[1]`` frames from ``start`` on into ``out``."""
        n, shift, h = out.shape[1], self.shift, self.frames
        if start == 0:
            h[:, shift] = h[:, shift + 1]  # the first frame is its own left neighbour
        # frames l - shift - 1 .. l - shift + 1 as a direct sum, never negative
        np.add(h[:, :n], h[:, 1:n + 1], out=out)
        out += h[:, 2:n + 2]
        out /= 3.0
        out *= self.attenuation
        out[:, : max(shift - start, 0)] = 0.0  # no history yet
        h[:, : shift + 1] = h[:, n:n + shift + 1]


class _Gain:
    """The a-priori SNR recursion over blocks of frames: prio = coef * carry
    + update in every cell.  On valid frames coef is beta and update is
    (1 - beta) times the rectified SNR, or the rectified SNR itself on a
    bin's first valid frame (carry is still 0 there); on invalid frames coef
    is 1 and update 0.  Carries each bin's last prio and whether it has been valid."""

    def __init__(self, n_bands: int, cfg: DereverbConfig):
        self.cfg = cfg
        self.update = np.empty((BLOCK_FRAMES, n_bands)).T
        self.carry = np.zeros(n_bands)
        self.seen_valid = np.zeros(n_bands, dtype=bool)

    def step(self, power: np.ndarray, gamma_rr: np.ndarray, g: np.ndarray) -> None:
        """The block's gain into ``g`` from its power and late PSD."""
        cfg, beta = self.cfg, self.cfg.snr_smoothing
        valid = gamma_rr > 0.0
        invalid = ~valid
        update = self.update[:, : g.shape[1]]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(power, gamma_rr, out=update)
            np.subtract(update, 1.0, out=update)
            np.maximum(update, 0.0, out=update)
            np.minimum(update, cfg.snr_ceiling, out=update)
        np.copyto(update, 0.0, where=invalid)

        fresh = np.flatnonzero(~self.seen_valid & valid.any(axis=1))
        first = valid[fresh].argmax(axis=1)
        start = update[fresh, first]
        update *= 1.0 - beta
        update[fresh, first] = start
        self.seen_valid[fresh] = True

        np.copyto(g, 1.0)
        np.copyto(g, beta, where=valid)
        carry = self.carry
        for j, column in enumerate(g.T):
            column *= carry
            column += update[:, j]
            carry = column
        self.carry = carry.copy()  # the gain math below overwrites its column

        np.add(g, 1.0, out=g)
        np.sqrt(g, out=g)
        np.divide(1.0, g, out=g)
        np.subtract(1.0, g, out=g)
        np.maximum(g, cfg.gain_floor, out=g)
        np.copyto(g, 1.0, where=invalid)


def reverberant_psd(
    power: np.ndarray,
    model: ReverbModel,
    cfg: DereverbConfig,
    frame_period: float,
) -> np.ndarray:
    """Late-reverberant PSD estimate from delayed, attenuated signal power.

    The smoothed power (3-frame average, a direct sum) from ``late_delay``
    seconds ago is scaled by e^(-2*delta*late_delay).  Frames with no
    history yet (the first delay_frames frames) get a zero estimate.
    """
    power = np.asarray(power, dtype=np.float64)
    if power.ndim != 2 or power.size == 0:
        raise InvalidArgumentError("power must be a non-empty [bands, frames] grid")
    if frame_period <= 0:
        raise InvalidArgumentError("frame_period must be positive")
    late = _LatePsd(power.shape[0], model, cfg, frame_period)
    out = np.empty_like(power)
    for s in range(0, power.shape[1], BLOCK_FRAMES):
        block = power[:, s:s + BLOCK_FRAMES]
        np.copyto(late.block[:, : block.shape[1]], block)
        late.step(s, out[:, s:s + BLOCK_FRAMES])
    return out


def spectral_gain(
    power: np.ndarray, gamma_rr: np.ndarray, cfg: DereverbConfig
) -> GainGrid:
    """Floored spectral gain from observed power and reverberant PSD.

    Per bin: SNR_post = power / gamma_rr; the instantaneous SNR
    (SNR_post - 1) is half-wave rectified and smoothed over frames into an
    a-priori SNR; the gain 1 - 1/sqrt(1 + SNR_prio) is clamped to
    [gain_floor, 1].  Bins whose reverberant estimate is zero pass through
    with unit gain.
    """
    power = np.asarray(power, dtype=np.float64)
    gamma_rr = np.asarray(gamma_rr, dtype=np.float64)
    if power.shape != gamma_rr.shape:
        raise InvalidArgumentError("power and gamma_rr must have matching shapes")
    n_bands, n_frames = power.shape
    gain = np.empty((n_frames, n_bands)).T  # frame-major: each block is contiguous
    state = _Gain(n_bands, cfg)
    for s in range(0, n_frames, BLOCK_FRAMES):
        block = slice(s, s + BLOCK_FRAMES)
        state.step(power[:, block], gamma_rr[:, block], gain[:, block])
    return GainGrid(gain=gain)


def dereverberate(
    buf: AudioBuffer | Spectrogram,
    cfg: DereverbConfig | None = None,
    rt60: float | None = None,
) -> tuple[AudioBuffer, DereverbDiagnostics]:
    """Suppress late reverberation in a signal.

    ``buf`` is a recording, analyzed with ``cfg.stft`` (default: the 46 ms
    configuration for its rate), or a spectrogram already computed from one,
    whose configuration must then match ``cfg.stft`` if that is set; its
    bins are copied, never changed.
    When ``rt60`` is not supplied it is estimated blindly from the input;
    if that estimation fails the suppressor falls back to 0.5 s and flags
    it in the diagnostics.  Output length equals the analyzed signal's.
    """
    cfg = cfg or DereverbConfig()
    rt60 = None if rt60 is None else float(_real(rt60, "rt60"))
    if rt60 is None or isinstance(buf, Spectrogram):  # a grid is held; blocks are copied from it
        grid = as_spectrogram(buf, cfg.stft)
        stft_cfg, rate, n_frames, num_samples = (
            grid.config, grid.sample_rate, grid.num_frames, grid.num_samples)
        dtype = np.result_type(grid.bins, np.float64)
        def fill(s: int, block: np.ndarray) -> None:
            np.copyto(block, grid.bins[:, s:s + len(block)].T)
    else:  # no grid: each block is transformed from the recording
        stft_cfg, rate = cfg.stft or default_stft_config(buf.sample_rate), buf.sample_rate
        frames = _Frames(buf.samples, stft_cfg)
        n_frames, num_samples, dtype = frames.n_frames, len(buf), np.complex128
        frame_buffer = frames.buffer()
        def fill(s: int, block: np.ndarray) -> None:
            block[~frames.live[s:s + len(block)]] = 0.0  # rfft leaves dead rows; the block is reused
            frames.rfft(s, block, frame_buffer)

    estimated = fallback = False
    frame_period = stft_cfg.frame_period(rate)
    if rt60 is None:
        try:
            rt60 = estimate_rt60(grid).rt60
            estimated = True
        except EstimationError:
            rt60 = FALLBACK_RT60
            fallback = True

    n_bands = stft_cfg.num_bins
    late = _LatePsd(n_bands, ReverbModel(rt60), cfg, frame_period)
    state = _Gain(n_bands, cfg)
    gamma_rr = np.empty((BLOCK_FRAMES, n_bands)).T
    gain = np.empty((BLOCK_FRAMES, n_bands)).T
    gain_sum = 0.0

    def shape(s: int, rows: np.ndarray) -> None:
        """Block s's gain, multiplied into its bins (a frame per row) and added to gain_sum."""
        nonlocal gain_sum
        n, block = len(rows), rows.T
        power = _power(block, out=late.block[:, :n])
        late.step(s, gamma_rr[:, :n])
        state.step(power, gamma_rr[:, :n], gain[:, :n])
        block *= gain[:, :n]
        gain_sum += float(np.sum(gain[:, :n]))

    samples = _overlap_add(stft_cfg, n_frames, num_samples, fill, dtype, shape)
    out = AudioBuffer(samples, rate)
    return out, DereverbDiagnostics(rt60, estimated, fallback, gain_sum / (n_bands * n_frames))
