"""WAV round trips and format edge cases."""

import struct

import numpy as np
import pytest
import scipy.io.wavfile

from sonolink.core import AudioBuffer
from sonolink.errors import FormatError, InvalidArgumentError
from sonolink.wavio import wav_read, wav_write


def test_pcm16_roundtrip(tmp_path):
    path = tmp_path / "a.wav"
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.9, 0.9, 500), 44100)
    clipped = wav_write(path, buf)
    assert clipped == 0
    back = wav_read(path)
    assert back.sample_rate == 44100
    assert np.max(np.abs(back.samples - buf.samples)) <= 0.5 / 32768 + 1e-12


def test_float32_roundtrip(tmp_path):
    path = tmp_path / "f.wav"
    buf = AudioBuffer([0.1, -0.25, 1.5, 0.0], 48000)
    assert wav_write(path, buf, bit_depth=32) == 0
    back = wav_read(path)
    assert np.allclose(back.samples, buf.samples, atol=1e-7)


def test_clipping_counted_and_warned(tmp_path):
    path = tmp_path / "c.wav"
    buf = AudioBuffer([0.0, 1.5, -2.0, 0.5], 8000)
    with pytest.warns(UserWarning, match="clipped 2"):
        clipped = wav_write(path, buf)
    assert clipped == 2
    back = wav_read(path)
    assert back.samples[1] == pytest.approx(32767 / 32768)
    assert back.samples[2] == pytest.approx(-1.0)


def test_stereo_averaged_with_warning(tmp_path):
    path = tmp_path / "st.wav"
    left = np.full(100, 8000, dtype=np.int16)
    right = np.full(100, -8000, dtype=np.int16)
    scipy.io.wavfile.write(path, 22050, np.stack([left, right], axis=1))
    with pytest.warns(UserWarning, match="averaging 2 channels"):
        buf = wav_read(path)
    assert buf.samples.ndim == 1
    assert np.allclose(buf.samples, 0.0, atol=1e-12)


def test_uint8_scaling(tmp_path):
    path = tmp_path / "u8.wav"
    scipy.io.wavfile.write(path, 8000, np.array([0, 128, 255], dtype=np.uint8))
    buf = wav_read(path)
    assert np.allclose(buf.samples, [-1.0, 0.0, 127 / 128], atol=1e-12)


def test_int32_scaling(tmp_path):
    path = tmp_path / "i32.wav"
    scipy.io.wavfile.write(
        path, 8000, np.array([0, 2**30, -(2**31)], dtype=np.int32)
    )
    buf = wav_read(path)
    assert np.allclose(buf.samples, [0.0, 0.5, -1.0], atol=1e-12)


def test_int24_scaling(tmp_path):
    # a 24-bit PCM file written byte by byte: RIFF header, fmt and data chunks
    values = [0, 2**22, -(2**23), 2**23 - 1, -1]
    data = b"".join(v.to_bytes(3, "little", signed=True) for v in values)
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000 * 3, 3, 24)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data + b"\0"  # pad byte
    path = tmp_path / "i24.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    buf = wav_read(path)
    assert buf.sample_rate == 8000
    assert np.array_equal(buf.samples, np.array(values) / 2.0**23)


def test_garbage_file_raises_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a riff header at all")
    with pytest.raises(FormatError, match="cannot read"):
        wav_read(path)


def test_bad_bit_depth(tmp_path):
    with pytest.raises(InvalidArgumentError, match="bit_depth"):
        wav_write(tmp_path / "x.wav", AudioBuffer([0.0], 8000), bit_depth=24)
