"""WAV file I/O mapped to float64 AudioBuffers.

Channel 0 of a 2-channel file is the top microphone, channel 1 the bottom.

Reads little-endian RIFF WAV files holding PCM (16, 24 or 32 bits), IEEE
float (32 or 64 bits), or either of them inside WAVE_FORMAT_EXTENSIBLE, at any
channel count; chunks other than `fmt ` and `data` are skipped. Writes the
layout scipy.io.wavfile writes: a 16-byte `fmt ` chunk for PCM, an 18-byte one
followed by a `fact` chunk for float. A malformed or unsupported file raises
ValueError.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from .dsp import AudioBuffer

_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# Bytes 4-15 of an EXTENSIBLE subformat GUID (RFC 2361); bytes 0-3 hold its format tag.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# PCM container bytes -> the full scale of the sample read from it; 24-bit
# samples are read left-justified into 32 bits.
_PCM_SCALE = {2: 32768.0, 3: 2147483648.0, 4: 2147483648.0}
_WRITE_FORMATS = {"float32": ("<f4", _FLOAT), "float64": ("<f8", _FLOAT), "pcm16": ("<i2", _PCM)}


def _unpack(layout: str, raw: bytes, offset: int, path):
    if offset + struct.calcsize(layout) > len(raw):
        raise ValueError(f"{path}: WAV header cut short at byte {len(raw)}")
    return struct.unpack_from(layout, raw, offset)


def _read_fmt(raw: bytes, offset: int, size: int, path) -> tuple:
    """(format tag, channels, sample rate, bytes per sample) of a `fmt ` chunk."""
    if size < 16:
        raise ValueError(f"{path}: fmt chunk of {size} bytes, at least 16 expected")
    tag, channels, rate, byte_rate, block_align, bits = _unpack("<HHIIHH", raw, offset, path)
    if tag == _EXTENSIBLE and size >= 18:
        (extension,) = _unpack("<H", raw, offset + 16, path)
        if extension < 22:
            raise ValueError(f"{path}: EXTENSIBLE fmt chunk with a {extension}-byte extension")
        subformat, guid_tail = _unpack("<I12s", raw, offset + 24, path)
        if guid_tail == _GUID_TAIL:
            tag = subformat
    if tag not in (_PCM, _FLOAT):
        raise ValueError(f"{path}: unsupported WAV format tag {tag:#06x}; PCM and IEEE float are read")
    if channels == 0 or block_align % channels:
        raise ValueError(f"{path}: {block_align}-byte frames cannot hold {channels} channels")
    width = block_align // channels
    if tag == _PCM and (bits <= 8 or width not in _PCM_SCALE):
        raise ValueError(f"{path}: unsupported WAV sample format: {bits}-bit PCM in {width} bytes")
    if tag == _FLOAT and (bits not in (32, 64) or width not in (4, 8)):
        raise ValueError(f"{path}: unsupported WAV sample format: {bits}-bit float in {width} bytes")
    if tag == _PCM and byte_rate != rate * block_align:
        raise ValueError(
            f"{path}: WAV header is invalid: byte rate {byte_rate} is not "
            f"sample rate {rate} times block align {block_align}"
        )
    return tag, channels, rate, width


def _decode(raw: bytes, offset: int, size: int, fmt: tuple) -> AudioBuffer:
    """The whole frames of a `data` chunk that are present in the file."""
    tag, channels, rate, width = fmt
    frames = min(size, len(raw) - offset) // (width * channels)
    count = frames * channels
    if tag == _FLOAT:
        samples = np.frombuffer(raw, f"<f{width}", count, offset).astype(np.float64)
    elif width == 3:
        packed = np.zeros((count, 4), np.uint8)
        packed[:, 1:] = np.frombuffer(raw, np.uint8, 3 * count, offset).reshape(count, 3)
        samples = packed.view("<i4")[:, 0] / _PCM_SCALE[3]
    else:
        samples = np.frombuffer(raw, f"<i{width}", count, offset) / _PCM_SCALE[width]
    return AudioBuffer(samples.reshape(frames, channels).T, rate)


def read_wav(path) -> AudioBuffer:
    """Read a PCM16/PCM24/PCM32/float WAV file into an AudioBuffer."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[:4] in (b"RIFX", b"RF64"):
        raise ValueError(f"{path}: {raw[:4].decode()} WAV files are not read, only little-endian RIFF")
    if raw[:4] != b"RIFF":
        raise ValueError(f"{path}: not a RIFF WAV file")
    riff_size, form = _unpack("<I4s", raw, 4, path)
    if form != b"WAVE":
        raise ValueError(f"{path}: not a WAV file: RIFF form type is {form!r}")
    end = riff_size + 8
    fmt = data = None
    position = 12
    while position < end:
        if position + 8 > len(raw):
            if data is None:
                raise ValueError(f"{path}: WAV file ends at byte {len(raw)} before its data chunk")
            warnings.warn(
                f"Reached EOF prematurely; finished at {len(raw):d} bytes, "
                f"expected {end:d} bytes from header.",
                stacklevel=2,
            )
            break
        chunk, size = _unpack("<4sI", raw, position, path)
        if chunk == b"fmt ":
            fmt = _read_fmt(raw, position + 8, size, path)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError(f"{path}: data chunk before the fmt chunk")
            data = position + 8, size, fmt
        # An odd-sized chunk is followed by a pad byte; a chunk cut short ends the file.
        position = min(position + 8 + size + size % 2, len(raw))
    if data is None:
        raise ValueError(f"{path}: no data chunk in the WAV file")
    return _decode(raw, *data)


def _header(tag: int, width: int, channels: int, frames: int, rate: int, path) -> bytes:
    data_size = frames * channels * width
    fmt_size, fact_size = (18, 12) if tag == _FLOAT else (16, 0)
    riff_size = 4 + (8 + fmt_size) + fact_size + (8 + data_size)
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {data_size} bytes of samples exceed a RIFF WAV file's 4 GiB")
    block_align = channels * width
    try:
        fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, 8 * width)
    except struct.error as exc:
        raise ValueError(f"{path}: {channels} channels at {rate} Hz do not fit a WAV header") from exc
    if tag == _FLOAT:
        fmt += struct.pack("<H4sII", 0, b"fact", 4, frames)  # no fmt extension, then the fact chunk
    head = b"RIFF" + struct.pack("<I4s4sI", riff_size, b"WAVE", b"fmt ", fmt_size)
    return head + fmt + b"data" + struct.pack("<I", data_size)


def write_wav(path, buffer: AudioBuffer, sample_format: str = "float32") -> None:
    """Write an AudioBuffer as 32-bit float (default), 64-bit float, or 16-bit PCM WAV."""
    if sample_format not in _WRITE_FORMATS:
        raise ValueError(f"unsupported sample_format {sample_format!r}")
    dtype, tag = _WRITE_FORMATS[sample_format]
    samples = buffer.samples
    header = _header(tag, np.dtype(dtype).itemsize, *samples.shape, buffer.sample_rate, path)
    if sample_format == "pcm16":
        samples = np.round(np.clip(samples, -1.0, 32767.0 / 32768.0) * 32768.0)
    interleaved = np.ascontiguousarray(samples.T, dtype=dtype)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(interleaved.data)
