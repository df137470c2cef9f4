"""Build synthetic rooms and listen to what they do to a packet.

Generates impulse responses at three reverberation times, pushes the same
packet through each, and prints how the decoder fares as the tail grows.
Pass a directory argument to keep the WAV files, written as 32-bit float
so they hold the very signals that were decoded.
"""

import sys

import numpy as np

from sonolink.modem import Packet, decode_packet, encode_packet, profile_by_name
from sonolink.simulate import ChannelSpec, RirSpec, apply_channel, synth_rir
from sonolink.wavio import wav_write

FS = 44100


def main(out_dir=None):
    profile = profile_by_name("audible")
    payload = bytes(range(8))
    dry = encode_packet(Packet(payload), profile, FS)

    print(f"{'rt60':>6} {'DRR':>8} {'decoded':>8} {'errors':>7} {'erasures':>9}")
    for rt60 in (0.3, 0.9, 1.8):
        spec = RirSpec(rt60=rt60, direct_gain=0.7, seed=5)
        rir = synth_rir(spec, FS)
        drr_db = 10.0 * np.log10(spec.direct_gain**2 / rt60)
        wet = apply_channel(dry, ChannelSpec(rir=rir, snr_db=30.0))
        result = decode_packet(wet, profile)
        print(
            f"{rt60:>6.1f} {drr_db:>7.1f}d {str(result.payload == payload):>8} "
            f"{result.corrected_errors:>7} {result.erasures_used:>9}"
        )
        if out_dir is not None:
            wav_write(f"{out_dir}/wet_rt{rt60:g}.wav", wet, bit_depth=32)

    if out_dir is not None:
        wav_write(f"{out_dir}/dry.wav", dry, bit_depth=32)
        print(f"waveforms written to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
