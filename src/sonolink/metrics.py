"""Quality metrics for dereverberation.

Two views of "did processing help": log spectral distortion against a
clean reference (with each spectrogram's log magnitudes confined to a 50 dB
dynamic range) and reverberation reduction on tone-free subbands.  Both
read their grids in blocks through reused buffers and hold no grid-sized
power or log array.

Each pass splits its work into halves (``core._halves``), each half with
buffers of its own, so on the main thread the helper thread takes one
half: ``lsd``'s clean-power pass splits the blocks of frames and its
distortion pass the runs of active frames, whose per-frame RMS land in
their slots of one per-frame array, and ``rr`` sums the reverberant
grid's band energies on the helper while the caller sums the processed
grid's.  The results are the same bytes as one thread's.
"""

from __future__ import annotations

import numpy as np

from .core import BLOCK_FRAMES, Spectrogram, _band_peaks, _blocks, _halves, _power
from .errors import InvalidArgumentError, MetricError

__all__ = ["lsd", "rr"]

ACTIVITY_THRESHOLD_DB = 40.0  # frames/bands this far below the peak count as silent
DYNAMIC_RANGE_DB = 50.0


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
    n_bands, n_frames = clean.bins.shape
    frame_power = np.empty(n_frames)

    def clean_power(starts) -> float:
        # a frame-major block buffer, so each frame's power sums its
        # contiguous bins as a whole-grid pass over stft's grid would
        buffer = np.empty((BLOCK_FRAMES, n_bands))
        peak = 0.0
        for s in starts:
            block = clean.bins[:, s:s + BLOCK_FRAMES]
            power = _power(block, out=buffer[: block.shape[1]].T)
            np.sum(power, axis=0, out=frame_power[s:s + block.shape[1]])
            peak = max(peak, power.max())
        return peak

    peak = max(_halves(clean_power, range(0, n_frames, BLOCK_FRAMES)))
    active = frame_power > frame_power.max() * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    if not active.any():  # a silent clean side has no active frame
        return 0.0
    # Only active clean frames are averaged, so only they are logged, clipped
    # and differenced.  Each side's top is the log of its peak power, which
    # is the peak of its logs because log10 is monotone.
    with np.errstate(divide="ignore"):
        top_clean = 10.0 * np.log10(peak)
        top_test = 10.0 * np.log10(_band_peaks(test.bins).max())
    top_test = top_test if np.isfinite(top_test) else top_clean
    # each run of active frames writes its frames' RMS into their slots
    rms = np.empty(n_frames)

    def distortions(runs) -> None:
        log_clean = np.empty((BLOCK_FRAMES, n_bands))
        log_test = np.empty_like(log_clean)
        with np.errstate(divide="ignore"):  # set per thread
            for a, b in runs:
                diff = _clipped_db(_power(clean.bins[:, a:b].T, out=log_clean[: b - a]), top_clean)
                diff -= _clipped_db(_power(test.bins[:, a:b].T, out=log_test[: b - a]), top_test)
                np.sqrt(np.mean(np.square(diff, out=diff), axis=1), out=rms[a:b])

    _halves(distortions, list(_blocks(active)))
    return float(np.mean(rms[active]))


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

    band_peak = _band_peaks(clean.bins)
    global_peak = band_peak.max()
    silent = band_peak < global_peak * 10.0 ** (-ACTIVITY_THRESHOLD_DB / 10.0)
    if not silent.any():
        raise MetricError("no silent subbands below the activity threshold")

    # the helper task sums the reverberant grid while this thread sums the processed one
    (proc_energy,), (rev_energy,) = _halves(
        lambda grids: [_energies(g.bins, silent) for g in grids], [processed, reverberant])
    tiny = np.finfo(np.float64).tiny
    ratios = 10.0 * np.log10(
        np.maximum(rev_energy, tiny) / np.maximum(proc_energy, tiny)
    )
    per_band = [(int(k), float(v)) for k, v in zip(np.flatnonzero(silent), ratios)]
    return float(np.mean(ratios)), per_band


def _energies(bins: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """The power of each band flagged in ``bands`` summed over all frames,
    each as one pairwise sum over a contiguous row, BLOCK_FRAMES bands at a time."""
    power = np.empty((BLOCK_FRAMES, bins.shape[1]))
    return np.concatenate([
        np.sum(_power(bins[a:b], out=power[: b - a]), axis=1) for a, b in _blocks(bands)
    ])
