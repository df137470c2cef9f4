"""Late-reverberation suppression by spectral subtraction.

The late-reverberant power at frame l is modeled as a delayed, attenuated
copy of the smoothed signal power one prediction delay earlier; the ratio
of observed power to that estimate drives a floored spectral gain applied
to the STFT magnitudes (phase untouched).  The decay constant comes from an
RT60 figure — supplied by the caller or estimated blindly from the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import BLOCK_FRAMES, AudioBuffer, Spectrogram, StftConfig, as_spectrogram, istft
from .errors import EstimationError, InvalidArgumentError
from .rt60 import _estimate_from_power

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
    if not (rt60 > 0 and math.isfinite(rt60)):
        raise InvalidArgumentError("rt60 must be positive and finite")
    return 3.0 * math.log(10.0) / rt60


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
    shift = cfg.delay_frames(frame_period)
    attenuation = math.exp(-2.0 * model.delta * cfg.late_delay)
    out = np.empty_like(power)
    out[:, :shift] = 0.0
    # Only frames whose delayed copy lands inside the grid are averaged, so
    # frame l's right neighbour l + 1 always exists; the first frame repeats
    # as its own left neighbour.  A direct sum of non-negative powers is
    # never negative.
    n = power.shape[1] - shift
    if n > 0:
        avg = out[:, shift:]
        np.add(power[:, 0], power[:, 0], out=avg[:, 0])
        np.add(power[:, : n - 1], power[:, 1:n], out=avg[:, 1:])
        avg += power[:, 1:n + 1]
        avg /= 3.0
        avg *= attenuation
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
    beta = cfg.snr_smoothing

    # frame-major storage: a block of frames, and each frame, is contiguous.
    # The SNRs live only in per-block buffers: the a-posteriori SNR becomes
    # the rectified SNR in place, and the a-priori SNR is written into the
    # gain block and turned into the gain there.
    gain = np.empty((n_frames, n_bands)).T
    rectified_buf = np.empty((BLOCK_FRAMES, n_bands)).T
    update_buf = np.empty((BLOCK_FRAMES, n_bands)).T
    carry = np.zeros(n_bands)
    seen_valid = np.zeros(n_bands, dtype=bool)
    for s in range(0, n_frames, BLOCK_FRAMES):
        e = min(s + BLOCK_FRAMES, n_frames)
        valid = gamma_rr[:, s:e] > 0.0
        invalid = ~valid
        rectified = rectified_buf[:, : e - s]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(power[:, s:e], gamma_rr[:, s:e], out=rectified)
            np.subtract(rectified, 1.0, out=rectified)
            np.maximum(rectified, 0.0, out=rectified)
            np.minimum(rectified, cfg.snr_ceiling, out=rectified)
        np.copyto(rectified, 0.0, where=invalid)
        update = update_buf[:, : e - s]
        np.multiply(rectified, 1.0 - beta, out=update)

        # prio = beta * carry + update wherever a bin was valid before and
        # is valid now.  The exceptions are a bin's first valid frame,
        # where prio = rectified, and an invalid frame after it, where prio
        # holds carry.  Invalid frames before the first valid one need no
        # fix: carry and update are both zero there.
        exception = invalid & seen_valid[:, None]
        fresh = np.flatnonzero(~seen_valid & valid.any(axis=1))
        if fresh.size:
            first = valid[fresh].argmax(axis=1)
            after_first = np.arange(e - s) > first[:, None]
            exception[fresh] = valid[fresh] ^ after_first
            seen_valid[fresh] = True
        exception_frames = set(np.flatnonzero(exception.any(axis=0)).tolist())

        g = gain[:, s:e]
        for j, column in enumerate(g.T):
            np.multiply(carry, beta, out=column)
            column += update[:, j]
            if j in exception_frames:
                rows = np.flatnonzero(exception[:, j])
                column[rows] = np.where(valid[rows, j], rectified[rows, j], carry[rows])
            carry = column
        carry = carry.copy()  # the gain math below overwrites its column

        np.add(g, 1.0, out=g)
        np.sqrt(g, out=g)
        np.divide(1.0, g, out=g)
        np.subtract(1.0, g, out=g)
        np.maximum(g, cfg.gain_floor, out=g)
        np.copyto(g, 1.0, where=invalid)
    return GainGrid(gain=gain)


def dereverberate(
    buf: AudioBuffer | Spectrogram,
    cfg: DereverbConfig | None = None,
    rt60: float | None = None,
) -> tuple[AudioBuffer, DereverbDiagnostics]:
    """Suppress late reverberation in a signal.

    ``buf`` is a recording, analyzed with ``cfg.stft`` (default: the 46 ms
    configuration for its rate), or a spectrogram already computed from one,
    whose configuration must then match ``cfg.stft`` if that is set.
    When ``rt60`` is not supplied it is estimated blindly from the input;
    if that estimation fails the suppressor falls back to 0.5 s and flags
    it in the diagnostics.  Output length equals the analyzed signal's.
    """
    cfg = cfg or DereverbConfig()
    grid = as_spectrogram(buf, cfg.stft)
    power = grid.power()

    estimated = False
    fallback = False
    frame_period = grid.config.frame_period(grid.sample_rate)
    if rt60 is None:
        try:
            rt60_value = _estimate_from_power(power, frame_period).rt60
            estimated = True
        except EstimationError:
            rt60_value = FALLBACK_RT60
            fallback = True
    else:
        rt60_value = float(rt60)

    model = ReverbModel(rt60_value)
    gamma_rr = reverberant_psd(power, model, cfg, frame_period)
    gain = spectral_gain(power, gamma_rr, cfg).gain
    del power, gamma_rr  # free both grids before the shaped one is built
    mean_gain = float(gain.mean())

    shaped = Spectrogram(
        bins=grid.bins * gain,
        config=grid.config,
        sample_rate=grid.sample_rate,
        num_samples=grid.num_samples,
    )
    del gain  # the diagnostics keep only its mean; free it before istft
    diagnostics = DereverbDiagnostics(
        rt60=rt60_value,
        rt60_estimated=estimated,
        rt60_fallback=fallback,
        mean_gain=mean_gain,
    )
    return istft(shaped), diagnostics
