"""sonolink: data over sound, and the room acoustics that get in its way.

Modules
-------
core
    Audio containers, STFT analysis/synthesis, convolution.
wavio
    WAV file reading and writing.
rs
    Reed-Solomon coding over GF(32) with errors-and-erasures decoding.
modem
    Multi-tone FSK packet encoder, preamble detector, and decoder.
rt60
    Blind reverberation-time estimation from subband energy decay.
dereverb
    Late-reverberation suppression by spectral gain.
metrics
    Log spectral distortion and reverberation reduction.
simulate
    Synthetic impulse responses, channel application, RIR corpora.
bench
    End-to-end benchmark harness with JSON/CSV reports.
cli
    The ``sonolink`` command-line tool.
"""

__version__ = "0.1.0"
