"""Blind reverberation-time estimation from subband energy decay.

The estimator works entirely from a reverberant recording: each retained
STFT bin contributes an energy envelope, the decay after the envelope peak
is backward-integrated into an energy decay curve (Schroeder integration),
a line is fit to the -5..-35 dB stretch of the curve, and the per-band
decay rates that survive the fit-quality gates are averaged into a single
RT60 figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AudioBuffer, Spectrogram, StftConfig, default_stft_config, stft
from .errors import (
    EmptyBandError,
    EstimationError,
    InvalidArgumentError,
    NoPeakError,
)

__all__ = [
    "SubbandEnvelope",
    "RtEstimate",
    "subband_envelopes",
    "decay_start",
    "edc",
    "fit_rt60_band",
    "estimate_rt60",
]

# defaults shared with estimate_rt60; the decay-start offset matches the
# modem's 80 ms symbol so the fit starts after the exciting tone has ended
DEFAULT_THRESHOLD_DB = 40.0
DEFAULT_DECAY_OFFSET = 0.080
FIT_UPPER_DB = -5.0
FIT_LOWER_DB = -35.0
MIN_FIT_SAMPLES = 5
MIN_FIT_R2 = 0.8


@dataclass
class SubbandEnvelope:
    """Per-frame power of one frequency bin plus its peak bookkeeping."""

    band_index: int
    energy: np.ndarray
    peak_frame: int
    decay_start_frame: int | None = None


@dataclass
class RtEstimate:
    """Blind RT60 estimate with per-band diagnostics.

    ``per_band`` lists (band_index, rt60_k, fit_r2) for every retained band;
    invalid bands carry rt60_k = 0 and do not contribute to the average.
    """

    rt60: float
    per_band: list[tuple[int, float, float]]
    bands_used: int


def subband_envelopes(
    spec: Spectrogram, threshold_db: float = DEFAULT_THRESHOLD_DB
) -> list[SubbandEnvelope]:
    """Power envelopes of the bins that rise above the level threshold.

    Bands whose peak power sits more than ``threshold_db`` below the global
    maximum are dropped.  An all-zero spectrogram yields an empty list.
    """
    return _power_envelopes(spec.power(), threshold_db)


def _power_envelopes(power: np.ndarray, threshold_db: float) -> list[SubbandEnvelope]:
    if power.size == 0:
        return []
    peaks = power.max(axis=1)
    global_peak = peaks.max()
    if global_peak == 0.0:
        return []
    cutoff = global_peak * 10.0 ** (-threshold_db / 10.0)
    out = []
    for k in np.nonzero(peaks >= cutoff)[0]:
        env = power[k]
        out.append(
            SubbandEnvelope(
                band_index=int(k), energy=env, peak_frame=int(np.argmax(env))
            )
        )
    return out


def decay_start(env: SubbandEnvelope, offset_frames: int) -> int:
    """Frame where the decay fit begins: envelope peak plus a fixed offset.

    The offset skips the tone body so only the room's decay is fitted.  The
    result is clamped to the last frame; a flat envelope (no strict maximum)
    raises NoPeakError.
    """
    if offset_frames < 0:
        raise InvalidArgumentError("offset_frames must be >= 0")
    energy = env.energy
    peak_value = energy[env.peak_frame]
    if np.count_nonzero(energy == peak_value) != 1:
        raise NoPeakError(f"band {env.band_index}: envelope has no strict maximum")
    start = min(env.peak_frame + offset_frames, energy.size - 1)
    env.decay_start_frame = start
    return start


def edc(env: SubbandEnvelope, start_frame: int) -> np.ndarray:
    """Backward-integrated energy decay curve in dB, 0 dB at ``start_frame``.

    EDC(l) = sum of the envelope from frame l to the end, normalized by its
    value at the start frame.  Frames past the last nonzero sample map to
    -inf dB.
    """
    energy = env.energy
    if not 0 <= start_frame < energy.size:
        raise InvalidArgumentError("start_frame outside the envelope")
    tail = energy[start_frame:]
    curve = np.cumsum(tail[::-1])[::-1]
    if curve[0] <= 0.0:
        raise EmptyBandError(f"band {env.band_index}: no energy past frame {start_frame}")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(curve / curve[0])


def _fit_line_db(edc_db: np.ndarray, frame_period: float) -> tuple[float, float]:
    """Least-squares slope (dB/s) and r^2 over the -5..-35 dB stretch.

    Returns (0, 0) when fewer than MIN_FIT_SAMPLES curve points lie in the
    window — slope 0 marks the band invalid.
    """
    mask = (edc_db <= FIT_UPPER_DB) & (edc_db >= FIT_LOWER_DB)
    if np.count_nonzero(mask) < MIN_FIT_SAMPLES:
        return 0.0, 0.0
    times = np.nonzero(mask)[0] * frame_period
    values = edc_db[mask]
    slope, intercept = np.polyfit(times, values, 1)
    predicted = slope * times + intercept
    ss_res = float(np.sum((values - predicted) ** 2))
    ss_tot = float(np.sum((values - values.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0, 0.0
    return float(slope), 1.0 - ss_res / ss_tot


def fit_rt60_band(edc_db: np.ndarray, frame_period: float) -> tuple[float, float]:
    """RT60 of one band from its decay curve, with the fit's r^2.

    The fitted line must cover at least MIN_FIT_SAMPLES points between
    -5 and -35 dB with r^2 >= 0.8 and a negative slope; the reverberation
    time is where the line crosses -60 dB (x-intercept method).  Returns
    (rt60_k, r2), with rt60_k = 0 when the fit is invalid.
    """
    if frame_period <= 0:
        raise InvalidArgumentError("frame_period must be positive")
    slope, r2 = _fit_line_db(np.asarray(edc_db, dtype=np.float64), frame_period)
    if slope >= 0.0 or r2 < MIN_FIT_R2:
        return 0.0, r2
    return -60.0 / slope, r2


def estimate_rt60(
    buf: AudioBuffer | Spectrogram,
    cfg: StftConfig | None = None,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
    decay_offset: float = DEFAULT_DECAY_OFFSET,
) -> RtEstimate:
    """Blind RT60 estimate of a reverberant signal.

    ``buf`` is a recording, analyzed with ``cfg`` (default: the 46 ms
    configuration for its rate), or a spectrogram already computed from one,
    whose own configuration then applies.  Runs the full subband pipeline
    and averages the nonzero per-band estimates.  Raises EstimationError
    when no band produces a valid fit (for example on silence or pure
    noise).
    """
    if isinstance(buf, Spectrogram):
        if cfg is not None and cfg != buf.config:
            raise InvalidArgumentError("cfg does not match the spectrogram's configuration")
        grid = buf
    else:
        grid = stft(buf, cfg or default_stft_config(buf.sample_rate))
    return _estimate_from_power(
        grid.power(), grid.config.frame_period(grid.sample_rate), threshold_db, decay_offset
    )


def _estimate_from_power(
    power: np.ndarray,
    frame_period: float,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
    decay_offset: float = DEFAULT_DECAY_OFFSET,
) -> RtEstimate:
    """estimate_rt60 on a grid's power(), for callers that already hold it."""
    offset_frames = math.ceil(decay_offset / frame_period)

    per_band: list[tuple[int, float, float]] = []
    for env in _power_envelopes(power, threshold_db):
        try:
            start = decay_start(env, offset_frames)
            curve = edc(env, start)
        except (NoPeakError, EmptyBandError):
            per_band.append((env.band_index, 0.0, 0.0))
            continue
        per_band.append((env.band_index, *fit_rt60_band(curve, frame_period)))
    estimates = [rt60_k for _, rt60_k, _ in per_band if rt60_k > 0.0]
    if not estimates:
        raise EstimationError("no subband produced a usable decay fit")
    return RtEstimate(
        rt60=float(np.mean(estimates)), per_band=per_band, bands_used=len(estimates)
    )
