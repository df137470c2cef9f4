"""WAV file I/O normalized to float64 AudioBuffers.

Reads RIFF/WAVE PCM (8/16/24/32-bit) and IEEE float (32/64-bit) files;
multichannel content is averaged down to mono with a warning.  Writing
supports 16-bit PCM (with clipping accounted) and 32-bit float.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import AudioBuffer
from .errors import FormatError, InvalidArgumentError

__all__ = ["wav_read", "wav_write"]


def wav_read(path) -> AudioBuffer:
    """Read a WAV file and return samples normalized to [-1, 1].

    Integer PCM is scaled by the type's full range (int16 by 1/32768);
    24-bit PCM arrives as int32 with each sample in the top three bytes, so
    it is scaled as 32-bit.  Float data is passed through unchanged.
    Multichannel files are averaged to mono with a warning.
    """
    import scipy.io.wavfile  # here, so only WAV I/O pays for importing scipy
    try:
        rate, data = scipy.io.wavfile.read(path)
    except Exception as exc:  # scipy raises bare ValueError on bad headers
        raise FormatError(f"cannot read WAV file {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data / 32768.0
    elif data.dtype == np.int32:
        samples = data / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise FormatError(f"unsupported WAV sample format: {data.dtype}")
    if samples.ndim == 2:
        warnings.warn(
            f"{path}: averaging {samples.shape[1]} channels to mono", stacklevel=2
        )
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate))


def wav_write(path, buf: AudioBuffer, bit_depth: int = 16) -> int:
    """Write an AudioBuffer to a WAV file.

    Parameters
    ----------
    path : str or Path
        Destination file.
    buf : AudioBuffer
        Signal to store.
    bit_depth : {16, 32}
        16 writes PCM16 (samples scaled by 32768 and clamped); 32 writes
        IEEE float32 verbatim.

    Returns
    -------
    int
        Number of samples that exceeded the nominal [-1, 1] range and were
        clipped (always 0 for float32 output).  A nonzero count also raises
        a warning.
    """
    if bit_depth == 16:
        clipped = int(np.count_nonzero(np.abs(buf.samples) > 1.0))
        scaled = np.round(buf.samples * 32768.0)
        data = np.clip(scaled, -32768, 32767).astype(np.int16)
    elif bit_depth == 32:
        clipped = 0
        data = buf.samples.astype(np.float32)
    else:
        raise InvalidArgumentError("bit_depth must be 16 (PCM) or 32 (float)")
    if clipped:
        warnings.warn(f"{path}: clipped {clipped} samples outside [-1, 1]", stacklevel=2)
    import scipy.io.wavfile
    scipy.io.wavfile.write(path, buf.sample_rate, data)
    return clipped
