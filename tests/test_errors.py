"""The shared range rules of ``sonolink.errors``: every field or argument
they guard refuses what its rule refuses, with a message naming the field
and the value, accepts the rule's boundary, and keeps Python numbers."""

import math
import sys

import numpy as np
import pytest

from sonolink.bench import BenchConfig, sweep_rooms
from sonolink.core import AudioBuffer, StftConfig
from sonolink.dereverb import decay_constant
from sonolink.errors import InvalidArgumentError
from sonolink.rt60 import estimate_rt60
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel

TINY = 5e-324  # the smallest positive float
BIG = sys.float_info.max
POSITIVE = (0, 0.0, -1, -TINY, math.nan, math.inf, -math.inf)  # what > 0 and finite refuses
NON_NEGATIVE = (-1, -TINY, math.nan, math.inf, -math.inf)
FINITE = (math.nan, math.inf, -math.inf)
ROOM = RirSpec(rt60=0.4)


def _reverberant_burst() -> AudioBuffer:
    x = np.zeros(8000)
    x[:2400] = np.random.default_rng(0).standard_normal(2400)
    return apply_channel(AudioBuffer(x, 8000), ChannelSpec(ROOM))


# (call with the value in place, the field its message names, refused values,
# the boundary value it accepts); integer fields meet only the values of
# their type, since a float is refused as not an integer
RULES = {
    "StftConfig.hop": (lambda v: StftConfig(64, v), "hop", (0, -1), 1),
    "RirSpec.rt60": (lambda v: RirSpec(rt60=v), "rt60", POSITIVE, TINY),
    "RirSpec.length": (lambda v: RirSpec(rt60=0.4, length=v), "length", FINITE, BIG),
    "RirSpec.direct_gain": (lambda v: RirSpec(0.4, direct_gain=v), "direct_gain", POSITIVE, TINY),
    "RirSpec.seed": (lambda v: RirSpec(rt60=0.4, seed=v), "seed", (-1,), 0),
    "ChannelSpec.snr_db": (lambda v: ChannelSpec(ROOM, snr_db=v), "snr_db", FINITE, -BIG),
    "ChannelSpec.normalize": (lambda v: ChannelSpec(ROOM, normalize=v), "normalize", POSITIVE, TINY),
    "ChannelSpec.noise_seed": (lambda v: ChannelSpec(ROOM, noise_seed=v), "noise_seed", (-1,), 0),
    "BenchConfig.seed": (lambda v: BenchConfig(seed=v), "seed", (-1,), 0),
    "BenchConfig.packets_per_rir": (
        lambda v: BenchConfig(packets_per_rir=v), "packets_per_rir", (0, -1), 1),
    "BenchConfig.rirs_per_rt": (lambda v: BenchConfig(rirs_per_rt=v), "rirs_per_rt", (0, -1), 1),
    "BenchConfig.threads": (lambda v: BenchConfig(threads=v), "threads", (0, -1), 1),
    "BenchConfig.direct_gain": (lambda v: BenchConfig(direct_gain=v), "direct_gain", POSITIVE, TINY),
    "BenchConfig.snr_db": (lambda v: BenchConfig(snr_db=v), "snr_db", FINITE, -BIG),
    "BenchConfig.rt60_values": (
        lambda v: BenchConfig(rt60_values=(0.4, v)), "rt60_values", POSITIVE, TINY),
    "sweep_rooms.seed": (lambda v: sweep_rooms((0.4,), 1, 0.7, v, 8000), "seed", (-1,), 0),
    "sweep_rooms.rirs_per_rt": (
        lambda v: sweep_rooms((0.4,), v, 0.7, 0, 8000), "rirs_per_rt", (0, -1), 1),
    "decay_constant.rt60": (decay_constant, "rt60", POSITIVE, TINY),
    "estimate_rt60.threshold_db": (
        lambda v: estimate_rt60(_reverberant_burst(), threshold_db=v), "threshold_db",
        NON_NEGATIVE, 0.0),
}


@pytest.mark.parametrize("call, field, refused, boundary", RULES.values(), ids=RULES)
def test_range_rules(call, field, refused, boundary):
    for value in refused:
        with pytest.raises(InvalidArgumentError) as raised:
            call(value)
        message = str(raised.value)
        assert message.startswith(f"{field} must be ") and message.endswith(f", got {value!r}")
    call(boundary)


@pytest.mark.parametrize("value", [1.5, 2.0, True, "1", None])
@pytest.mark.parametrize("field", ["seed", "rirs_per_rt"])
def test_sweep_rooms_refuses_what_is_not_an_integer(field, value):
    args = {"rt60_values": (0.4,), "rirs_per_rt": 1, "direct_gain": 0.7, "seed": 0,
            "sample_rate": 8000, field: value}
    with pytest.raises(InvalidArgumentError, match=f"^{field} must be an integer, got "):
        sweep_rooms(**args)


def test_configs_store_numpy_scalars_as_python_numbers():
    rir = RirSpec(rt60=np.float32(0.5), length=np.float32(1.0), direct_gain=np.float64(0.7),
                  seed=np.int64(3))
    chan = ChannelSpec(rir, snr_db=np.float32(20.0), normalize=np.float64(0.5),
                       noise_seed=np.uint32(1))
    stft_cfg = StftConfig(np.int64(64), np.int32(8))
    values = (rir.rt60, rir.length, rir.direct_gain, rir.seed, chan.snr_db, chan.normalize,
              chan.noise_seed, stft_cfg.window_length, stft_cfg.hop)
    assert [type(v) for v in values] == [float, float, float, int, float, float, int, int, int]
    assert values == (0.5, 1.0, 0.7, 3, 20.0, 0.5, 1, 64, 8)
