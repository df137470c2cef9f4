"""Blind reverberation-time estimation from subband energy decay.

The estimator works entirely from a reverberant recording: each retained
STFT bin's power after its peak is backward-integrated into an energy decay
curve (Schroeder integration), a line is fit to the -5..-35 dB stretch of
the curve, and the per-band decay rates that survive the fit-quality gates
are averaged into a single RT60 figure.  It never holds the grid's power:
band peaks are taken over blocks of :data:`~sonolink.core.BLOCK_FRAMES`
frames, and the retained bands are processed BLOCK_FRAMES at a time as one
[bands x frames] power matrix computed from those rows of the grid.

The band peaks' blocks of frames are split into halves (``core._halves``).
The blocks of retained bands run two steps side by side, as
``core._overlap_add`` does: the caller gathers block 0's power and builds
its decay curves, then, for each block k, the helper gathers block k + 1's
power into the other of two block buffers and builds its curves in place
while the caller fits block k's curves and writes that block's slots of
the per-band results.  So every run-wide temporary of the fit is the
caller's, and the helper allocates only its gather copies and one mask.
A block's power is computed from a few of its complex rows at a time, so
no complex copy of the block is held.  A block keeps its BLOCK_FRAMES
bands: the fit's run width is the longest run in the block, and numpy's
pairwise sums over that width round differently at another width, so
smaller blocks would move the estimates' last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BLOCK_FRAMES, AudioBuffer, Spectrogram, StftConfig, _band_peaks, _halves, _power,
                   as_spectrogram)
from .errors import EstimationError, _non_negative, _real

__all__ = ["RtEstimate", "estimate_rt60"]

# the decay-start offset matches the modem's 80 ms symbol so the fit starts
# after the exciting tone has ended
DEFAULT_THRESHOLD_DB = 40.0
DEFAULT_DECAY_OFFSET = 0.080
FIT_UPPER_DB = -5.0
FIT_LOWER_DB = -35.0
MIN_FIT_SAMPLES = 5
MIN_FIT_R2 = 0.8
GATHER_ROWS = 8  # retained bands whose complex rows are copied at once


@dataclass
class RtEstimate:
    """Blind RT60 estimate with per-band diagnostics.

    ``per_band`` lists (band_index, rt60_k, fit_r2) for every retained band;
    invalid bands carry rt60_k = 0 and do not contribute to the average.
    """

    rt60: float
    per_band: list[tuple[int, float, float]]
    bands_used: int


def estimate_rt60(
    buf: AudioBuffer | Spectrogram,
    cfg: StftConfig | None = None,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
) -> RtEstimate:
    """Blind RT60 estimate of a reverberant signal.

    ``buf`` is a recording, analyzed with ``cfg`` (default: the 46 ms
    configuration for its rate), or a spectrogram already computed from one,
    whose own configuration then applies.  Bands whose peak power sits more
    than ``threshold_db`` (finite, >= 0) below the loudest band's are
    dropped; the nonzero per-band estimates of the rest are averaged.
    Raises EstimationError when no band produces a valid fit (for example on
    silence or pure noise).
    """
    threshold_db = _non_negative(_real(threshold_db, "threshold_db"), "threshold_db")
    grid = as_spectrogram(buf, cfg)
    bins, frame_period = grid.bins, grid.config.frame_period(grid.sample_rate)
    peaks = _band_peaks(bins)
    top = peaks.max(initial=0.0)
    if top > 0.0:
        bands = np.flatnonzero(peaks >= top * 10.0 ** (-threshold_db / 10.0))
    else:
        bands = np.empty(0, dtype=np.intp)
    offset = math.ceil(DEFAULT_DECAY_OFFSET / frame_period)

    rt60_k = np.zeros(bands.size)
    r2 = np.zeros(bands.size)
    ok = np.zeros(bands.size, dtype=bool)
    starts = range(0, bands.size, BLOCK_FRAMES)
    buffers = [np.empty((min(BLOCK_FRAMES, bands.size), bins.shape[1]))
               for _ in range(min(len(starts), 2))]

    def curves(k: int) -> tuple[slice, np.ndarray]:
        block = slice(starts[k], starts[k] + BLOCK_FRAMES)
        return block, buffers[k % 2][: bands[block].size]

    def gather(k: int) -> None:
        # block k's power in reversed frame order, GATHER_ROWS complex rows
        # at a time, becomes its decay curves in place
        block, power = curves(k)
        rows = bands[block]
        for i in range(0, rows.size, GATHER_ROWS):
            _power(bins[rows[i:i + GATHER_ROWS], ::-1], out=power[i:i + GATHER_ROWS])
        ok[block] = _decay_curves(power, offset)[1]

    def fit(k: int) -> None:
        block, decays = curves(k)
        rt60, fit_r2 = _fit_decays(decays, frame_period)
        rt60_k[block], r2[block] = np.where(ok[block], rt60, 0.0), np.where(ok[block], fit_r2, 0.0)

    def ahead(k: int) -> None:
        gather(k + 1)

    if starts:
        gather(0)
    for k in range(len(starts)):
        _halves(lambda fns: [fn(k) for fn in fns], [fit, ahead] if k + 1 < len(starts) else [fit])
    valid = rt60_k > 0.0
    if not valid.any():
        raise EstimationError("no subband produced a usable decay fit")
    return RtEstimate(
        rt60=float(np.mean(rt60_k[valid])),
        per_band=list(zip(bands.tolist(), rt60_k.tolist(), r2.tolist())),
        bands_used=int(np.count_nonzero(valid)),
    )


def _decay_curves(curves: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Energy decay curves in dB of bands whose power, in reversed frame
    order, is given; the curves overwrite it.

    A band's decay starts ``offset`` frames after its peak, clamped to the
    last frame.  Its curve at frame l is the band's power summed from l to
    the end, over that sum at the start frame: 0 dB at the start, above it
    before and -inf past the last nonzero frame.  Returns the curves and a
    flag per band that it has a strict maximum and energy past its start;
    the curves of unflagged bands mean nothing.
    """
    at = np.arange(curves.shape[0])
    peak = np.argmax(curves, axis=1)
    strict = np.count_nonzero(curves == curves[at, peak][:, None], axis=1) == 1
    start = np.maximum(peak - offset, 0)
    np.cumsum(curves, axis=1, out=curves)
    total = curves[at, start]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(curves, total[:, None], out=curves)
        np.log10(curves, out=curves)
    curves *= 10.0
    return curves, strict & (total > 0.0)


def _fit_decays(curves: np.ndarray, frame_period: float) -> tuple[np.ndarray, np.ndarray]:
    """RT60 and r^2 of a least-squares line over each curve's -5..-35 dB points.

    ``curves`` are decay curves in reversed frame order, as _decay_curves
    gives them.  They never rise, so each curve's points inside the window
    form one run of frames, and the run is all the fit reads.  A fit needs
    at least MIN_FIT_SAMPLES points that are not all equal, r^2 >= 0.8 and
    a negative slope; the reverberation time is where the line crosses
    -60 dB.  Invalid fits give rt60 = 0 and their r^2 (0 without a fit).
    """
    below = np.count_nonzero(curves < FIT_LOWER_DB, axis=1)
    count = np.count_nonzero(curves <= FIT_UPPER_DB, axis=1) - below
    pos = np.arange(max(int(count.max(initial=0)), 1))
    inside = pos < count[:, None]
    run = np.take_along_axis(curves, np.minimum(below[:, None] + pos, curves.shape[1] - 1), axis=1)
    last = np.take_along_axis(run, np.maximum(count - 1, 0)[:, None], axis=1)[:, 0]
    fitted = (count >= MIN_FIT_SAMPLES) & (run[:, 0] != last)

    # frame times, centred on each run's midpoint; the run counts backwards in time
    dt = ((count[:, None] - 1) / 2.0 - pos) * frame_period
    outside = ~inside
    dt[outside] = 0.0
    # the run becomes its deviations from its mean in place, and one buffer
    # takes the residuals, so a block holds three run-wide arrays, not five
    run[outside] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = run.sum(axis=1) / count
        dy = np.subtract(run, mean[:, None], out=run, where=inside)
        slope = np.sum(dt * dy, axis=1) / np.sum(dt * dt, axis=1)
        residual = np.multiply(slope[:, None], dt)
        ss_res = np.sum(np.square(np.subtract(dy, residual, out=residual), out=residual), axis=1)
        r2 = np.where(fitted, 1.0 - ss_res / np.sum(dy * dy, axis=1), 0.0)
        good = fitted & (slope < 0.0) & (r2 >= MIN_FIT_R2)
        return np.where(good, -60.0 / slope, 0.0), r2
