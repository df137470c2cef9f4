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

# The BLAS thread-count variables: numpy's BLAS reads them once, as numpy
# loads.  The CLI sets each one that is unset to 1 before it imports numpy.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
