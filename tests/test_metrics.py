"""Distortion and reverberation-reduction metric behavior."""

import numpy as np
import pytest

from sonolink.core import Spectrogram, StftConfig
from sonolink.errors import InvalidArgumentError, MetricError
from sonolink.metrics import lsd, rr

CFG = StftConfig(window_length=16, hop=4)  # 9 bins


def _spec(bins) -> Spectrogram:
    bins = np.asarray(bins, dtype=np.complex128)
    extent = (bins.shape[1] - 1) * CFG.hop + CFG.window_length
    return Spectrogram(bins=bins, config=CFG, sample_rate=8000, num_samples=extent)


def _random_spec(seed, frames=12):
    rng = np.random.default_rng(seed)
    mags = rng.random((9, frames)) + 0.05
    phases = np.exp(2j * np.pi * rng.random((9, frames)))
    return _spec(mags * phases)


# ---------------------------------------------------------------------------
# log spectral distortion
# ---------------------------------------------------------------------------


def test_lsd_self_is_zero():
    spec = _random_spec(0)
    assert lsd(spec, spec) == 0.0


def test_lsd_doubling_oracle():
    # both floors track their own spectrogram's peak, so a global 2x offset
    # survives clipping untouched: every bin differs by exactly 20*log10(2)
    spec = _random_spec(1)
    doubled = _spec(spec.bins * 2.0)
    assert lsd(spec, doubled) == pytest.approx(6.020599913279624, rel=1e-12)


def test_lsd_symmetric_when_ranges_match():
    spec = _random_spec(2)
    rng = np.random.default_rng(3)
    shuffled = spec.bins.copy().reshape(-1)
    rng.shuffle(shuffled)
    other = _spec(shuffled.reshape(spec.bins.shape))  # same max -> same floor
    assert lsd(spec, other) == pytest.approx(lsd(other, spec), rel=1e-12)


def test_lsd_nonnegative():
    for seed in range(30):
        a, b = _random_spec(seed), _random_spec(seed + 1000)
        assert lsd(a, b) >= 0.0


def test_lsd_ignores_silent_frames():
    # distortion confined to a frame 80 dB below the peak must not count
    clean = np.ones((9, 5))
    clean[:, 3] = 1e-4
    test = clean.copy()
    test[:, 3] *= 2.0
    assert lsd(_spec(clean), _spec(test)) == 0.0


def test_lsd_bin_mismatch():
    other = Spectrogram(
        bins=np.ones((5, 4), dtype=np.complex128),
        config=StftConfig(window_length=8, hop=4),
        sample_rate=8000,
        num_samples=20,
    )
    with pytest.raises(InvalidArgumentError, match="bin counts differ"):
        lsd(_random_spec(0), other)


def test_lsd_frame_mismatch_raises():
    a = _random_spec(5, frames=12)
    b = _spec(a.bins[:, :8])
    with pytest.raises(InvalidArgumentError, match="frame counts differ: 12 vs 8"):
        lsd(a, b)
    with pytest.raises(InvalidArgumentError, match="frame counts differ: 8 vs 12"):
        lsd(b, a)


def test_lsd_both_silent():
    assert lsd(_spec(np.zeros((9, 4))), _spec(np.zeros((9, 4)))) == 0.0


def test_lsd_silent_side_takes_the_other_floor():
    # a silent test grid sits at the clean grid's floor, 50 dB below its peak
    assert lsd(_spec(np.ones((9, 4))), _spec(np.zeros((9, 4)))) == 50.0


# ---------------------------------------------------------------------------
# reverberation reduction
# ---------------------------------------------------------------------------


def _rr_triple():
    """Clean keeps bands 6..8 silent; processing attenuates them by 10 dB."""
    rng = np.random.default_rng(9)
    clean = rng.random((9, 10)) + 0.5
    clean[6:] *= 1e-5
    reverberant = rng.random((9, 10)) + 0.5
    processed = reverberant.copy()
    processed[6:] /= np.sqrt(10.0)
    return _spec(clean), _spec(reverberant), _spec(processed)


def test_rr_ten_db_oracle():
    clean, reverberant, processed = _rr_triple()
    mean, per_band = rr(reverberant, processed, clean)
    assert mean == pytest.approx(10.0, rel=1e-12)
    assert [k for k, _ in per_band] == [6, 7, 8]
    for _, v in per_band:
        assert v == pytest.approx(10.0, rel=1e-12)


def test_rr_amplification_is_negative():
    clean, reverberant, processed = _rr_triple()
    louder = _spec(reverberant.bins.copy())
    louder.bins[6:] *= 3.0
    mean, _ = rr(reverberant, louder, clean)
    assert mean == pytest.approx(-20.0 * np.log10(3.0), rel=1e-9)


def test_rr_needs_silent_bands():
    spec = _random_spec(4)  # every band within the 40 dB activity window
    with pytest.raises(MetricError, match="no silent subbands"):
        rr(spec, spec, spec)


def test_rr_shape_mismatch():
    a = _random_spec(0, frames=4)
    b = _random_spec(0, frames=5)
    with pytest.raises(InvalidArgumentError, match="shapes must match"):
        rr(a, b, a)


def test_rr_clean_bin_mismatch():
    a = _random_spec(0, frames=4)
    clean = Spectrogram(np.ones((5, 4)), StftConfig(window_length=8, hop=4), 8000, 20)
    with pytest.raises(InvalidArgumentError, match="clean reference bin count"):
        rr(a, a, clean)


# ---------------------------------------------------------------------------
# one clean-reverberant-processed triple
# ---------------------------------------------------------------------------


def test_lsd_and_rr_on_one_triple():
    clean, reverberant, processed = _rr_triple()
    mean_rr, per_band = rr(reverberant, processed, clean)
    assert mean_rr == pytest.approx(10.0, rel=1e-9)
    assert len(per_band) == 3
    mean_lsd = lsd(clean, processed)
    assert mean_lsd >= 0.0
    assert np.isfinite(mean_lsd)
