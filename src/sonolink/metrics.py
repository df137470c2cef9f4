"""Quality metrics for dereverberation.

Two views of "did processing help": log spectral distortion against a
clean reference (with each spectrogram's log magnitudes confined to a 50 dB
dynamic range) and reverberation reduction on tone-free subbands.
"""

from __future__ import annotations

import numpy as np

from .core import Spectrogram
from .errors import InvalidArgumentError, MetricError

__all__ = ["lsd", "rr"]

ACTIVITY_THRESHOLD_DB = 40.0  # frames/bands this far below the peak count as silent
DYNAMIC_RANGE_DB = 50.0


def _active_frames(power: np.ndarray) -> np.ndarray:
    frame_power = np.sum(power, axis=0)
    peak = frame_power.max() if frame_power.size else 0.0
    return frame_power > peak * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)


def lsd(clean: Spectrogram, test: Spectrogram) -> float:
    """Mean log spectral distortion over frames carrying signal, in dB.

    Per frame the RMS over bins of the clipped-log-magnitude difference is
    taken; frames whose clean power sits more than 40 dB below the loudest
    frame are excluded from the average.  Each spectrogram is clamped to a
    50 dB dynamic range below its own maximum before comparison; a silent
    side takes the other side's maximum instead.
    """
    if clean.num_bands != test.num_bands:
        raise InvalidArgumentError(
            f"bin counts differ: {clean.num_bands} vs {test.num_bands}"
        )
    if clean.num_frames != test.num_frames:
        raise InvalidArgumentError(
            f"frame counts differ: {clean.num_frames} vs {test.num_frames}"
        )
    if clean.num_frames == 0:
        raise InvalidArgumentError("cannot compare empty spectrograms")
    # Only active clean frames are averaged, so only they are logged, clipped
    # and differenced, gathered frame-major so each frame's RMS sums its
    # contiguous bins as a whole-grid pass would.  A silent clean side has
    # no active frame.  Each side's top is the log of its peak power, which
    # is the peak of its logs because log10 is monotone.
    clean_power = clean.power()
    active = _active_frames(clean_power)
    if not active.any():
        return 0.0
    with np.errstate(divide="ignore"):
        top_clean = 10.0 * np.log10(clean_power.max())
        log_clean = _clipped_db(clean_power.T[active], top_clean)
        del clean_power
        test_power = test.power()
        top_test = 10.0 * np.log10(test_power.max())
        top_test = top_test if np.isfinite(top_test) else top_clean
        log_test = _clipped_db(test_power.T[active], top_test)
    del test_power
    log_clean -= log_test
    per_frame = np.sqrt(np.mean(np.square(log_clean, out=log_clean), axis=1))
    return float(np.mean(per_frame))


def _clipped_db(power: np.ndarray, top: float) -> np.ndarray:
    """10·log10(power) in place, raised to at least top - DYNAMIC_RANGE_DB."""
    db = np.multiply(np.log10(power, out=power), 10.0, out=power)
    return np.maximum(db, top - DYNAMIC_RANGE_DB, out=db)


def rr(
    reverberant: Spectrogram,
    processed: Spectrogram,
    clean: Spectrogram,
) -> tuple[float, list[tuple[int, float]]]:
    """Reverberation reduction on tone-free subbands, mean and per-band dB.

    Silent bands are those whose peak power in the clean reference sits
    more than 40 dB below its global maximum.  Positive values mean the
    processed signal carries less energy there than the reverberant one.
    """
    if reverberant.bins.shape != processed.bins.shape:
        raise InvalidArgumentError("reverberant and processed shapes must match")
    if clean.num_bands != reverberant.num_bands:
        raise InvalidArgumentError("clean reference bin count must match")

    band_peak = clean.power().max(axis=1)
    rev_power = reverberant.power()
    global_peak = band_peak.max()
    silent = band_peak < global_peak * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    if not silent.any():
        raise MetricError("no silent subbands below the activity threshold")

    tiny = np.finfo(np.float64).tiny
    rev_energy = np.sum(rev_power[silent], axis=1)
    del rev_power
    proc_energy = np.sum(processed.power()[silent], axis=1)
    ratios = 10.0 * np.log10(
        np.maximum(rev_energy, tiny) / np.maximum(proc_energy, tiny)
    )
    bands = np.nonzero(silent)[0]
    per_band = [(int(k), float(v)) for k, v in zip(bands, ratios)]
    return float(np.mean(ratios)), per_band
