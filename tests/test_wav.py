"""WAV codec tests: round trips, and scipy.io.wavfile as the oracle for the
bytes written and the samples read."""

import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import read_wav_reference
from scipy.io import wavfile

import audiozoom
from audiozoom.dsp import AudioBuffer
from audiozoom.wav import read_wav, write_wav

PCM, FLOAT, EXTENSIBLE = 1, 3, 0xFFFE
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def test_float32_round_trip_stereo(tmp_path):
    rng = np.random.default_rng(0)
    data = 0.5 * rng.standard_normal((2, 1000))
    path = tmp_path / "stereo.wav"
    write_wav(path, AudioBuffer(data, 16000))
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert back.channel_count == 2
    assert np.abs(back.samples - data).max() <= 1e-7


def test_pcm16_round_trip_mono(tmp_path):
    rng = np.random.default_rng(1)
    data = 0.9 * rng.standard_normal(500)
    path = tmp_path / "mono.wav"
    write_wav(path, AudioBuffer(data, 8000), sample_format="pcm16")
    back = read_wav(path)
    assert back.channel_count == 1
    assert np.abs(back.samples[0] - np.clip(data, -1, 1)).max() <= 1.0 / 32768.0


def test_channel_order_preserved(tmp_path):
    top = np.linspace(0.0, 0.5, 100)
    bottom = -np.linspace(0.0, 0.5, 100)
    path = tmp_path / "order.wav"
    write_wav(path, AudioBuffer(np.stack([top, bottom]), 16000))
    back = read_wav(path)
    assert back.samples[0, -1] > 0 > back.samples[1, -1]


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="sample_format"):
        write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(10), 8000), sample_format="mp3")


def _chunk(name: bytes, body: bytes) -> bytes:
    return name + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) % 2)


def _fmt_body(tag, channels, rate, width, bits=None, subformat=None):
    bits = 8 * width if bits is None else bits
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * channels * width, channels * width, bits)
    if tag == EXTENSIBLE:
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", subformat) + GUID_TAIL
    return body


def _wav_file(path, fmt_body, payload, before=(), after=()):
    """A WAV file of `fmt `, the chunks in `before`, `data` and those in `after`."""
    chunks = _chunk(b"fmt ", fmt_body) + b"".join(_chunk(*c) for c in before)
    chunks += _chunk(b"data", payload) + b"".join(_chunk(*c) for c in after)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
    return path


def _payload(width, kind, channels, frames):
    """Random interleaved samples over the container's whole range, as bytes."""
    rng = np.random.default_rng(0)
    count = channels * frames
    if kind == "float":
        return rng.uniform(-1.5, 1.5, count).astype(f"<f{width}").tobytes()
    return rng.integers(0, 256, width * count, dtype=np.uint8).tobytes()


def _assert_same_buffer(got, want):
    assert got.sample_rate == want.sample_rate
    assert got.samples.dtype == want.samples.dtype == np.float64
    assert got.samples.shape == want.samples.shape
    assert got.samples.strides == want.samples.strides
    assert np.array_equal(got.samples, want.samples)


class TestWriterMatchesOracle:
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("frames", [0, 1, 7, 1001])
    @pytest.mark.parametrize(
        "sample_format, convert",
        [
            ("float32", lambda x: x.astype(np.float32)),
            ("float64", lambda x: x.astype(np.float64)),
            ("pcm16", lambda x: np.round(np.clip(x, -1.0, 32767 / 32768) * 32768).astype(np.int16)),
        ],
    )
    def test_bytes_equal_wavfile_write(self, tmp_path, channels, frames, sample_format, convert):
        rng = np.random.default_rng(frames)
        buffer = AudioBuffer(0.8 * rng.standard_normal((channels, frames)), 22050)
        write_wav(tmp_path / "got.wav", buffer, sample_format=sample_format)
        wavfile.write(tmp_path / "want.wav", 22050, convert(buffer.samples.T))
        assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()

    def test_over_4_gib_rejected_without_writing(self, tmp_path):
        # A zero-stride view: the size check runs before any sample is converted.
        buffer = SimpleNamespace(samples=np.broadcast_to(0.0, (2, 2**28)), sample_rate=16000)
        path = tmp_path / "big.wav"
        with pytest.raises(ValueError, match="4 GiB"):
            write_wav(path, buffer, sample_format="float64")
        assert not path.exists()

    def test_rate_beyond_the_header_rejected_without_writing(self, tmp_path):
        path = tmp_path / "fast.wav"
        with pytest.raises(ValueError, match="do not fit a WAV header"):
            write_wav(path, AudioBuffer(np.zeros((2, 4)), 2**32))
        assert not path.exists()


class TestReaderMatchesOracle:
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize(
        "tag, width, kind",
        [(PCM, 2, "int"), (PCM, 3, "int"), (PCM, 4, "int"), (FLOAT, 4, "float"), (FLOAT, 8, "float")],
        ids=["pcm16", "pcm24", "pcm32", "float32", "float64"],
    )
    def test_formats(self, tmp_path, channels, tag, width, kind):
        payload = _payload(width, kind, channels, 101)
        path = _wav_file(tmp_path / "x.wav", _fmt_body(tag, channels, 16000, width), payload)
        _assert_same_buffer(read_wav(path), read_wav_reference(path))

    @pytest.mark.parametrize(
        "subformat, width, kind",
        [(PCM, 2, "int"), (PCM, 3, "int"), (FLOAT, 4, "float")],
        ids=["pcm16", "pcm24", "float32"],
    )
    def test_extensible(self, tmp_path, subformat, width, kind):
        fmt = _fmt_body(EXTENSIBLE, 2, 48000, width, subformat=subformat)
        path = _wav_file(tmp_path / "x.wav", fmt, _payload(width, kind, 2, 64))
        _assert_same_buffer(read_wav(path), read_wav_reference(path))

    @pytest.mark.parametrize(
        "before, after",
        [
            ([(b"LIST", b"INFOISFT\x04\x00\x00\x00abc\x00")], []),
            ([], [(b"LIST", b"INFOISFT\x04\x00\x00\x00abc\x00")]),
            ([(b"LIST", b"odd")], [(b"LIST", b"tails")]),
            ([(b"fact", struct.pack("<I", 33))], [(b"JUNK", b"x")]),
        ],
        ids=["list_before", "list_after", "odd_lists", "fact_and_junk"],
    )
    def test_skipped_chunks(self, tmp_path, before, after):
        # 24-bit mono of an odd frame count: the data chunk itself has a pad byte.
        path = _wav_file(
            tmp_path / "x.wav", _fmt_body(PCM, 1, 8000, 3), _payload(3, "int", 1, 33), before, after
        )
        _assert_same_buffer(read_wav(path), read_wav_reference(path))

    def test_pcm24_is_int24_over_2_to_23(self, tmp_path):
        values = np.array([-(2**23), -1, 0, 1, 2**23 - 1])
        payload = b"".join(int(v).to_bytes(3, "little", signed=True) for v in values)
        path = _wav_file(tmp_path / "x.wav", _fmt_body(PCM, 1, 8000, 3), payload)
        assert np.array_equal(read_wav(path).samples[0], values / 2.0**23)

    @pytest.mark.parametrize("channels, sample_format", [(1, "pcm16"), (2, "float32"), (2, "float64")])
    def test_truncated_data_chunk_keeps_whole_frames_and_warns(self, tmp_path, channels, sample_format):
        path = tmp_path / "cut.wav"
        write_wav(path, AudioBuffer(np.linspace(-0.5, 0.5, 1000).reshape(channels, -1), 16000), sample_format)
        width = {"pcm16": 2, "float32": 4, "float64": 8}[sample_format]
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 37 * width * channels])
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = read_wav(path)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = read_wav_reference(path)
        _assert_same_buffer(got, want)
        assert got.length == 1000 // channels - 37
        assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
        assert all(issubclass(w.category, UserWarning) for w in got_warnings)
        assert str(got_warnings[0].message).startswith("Reached EOF prematurely; finished at")

    def test_partial_frame_at_the_cut_is_dropped(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, AudioBuffer(np.zeros((2, 100)), 16000))
        path.write_bytes(path.read_bytes()[:-12])  # 98 frames and half of the 99th
        with pytest.warns(UserWarning, match="Reached EOF prematurely"):
            assert read_wav(path).length == 98


class TestRejected:
    @pytest.mark.parametrize(
        "fmt, match",
        [
            (_fmt_body(PCM, 1, 8000, 1), "8-bit PCM"),
            (_fmt_body(PCM, 2, 8000, 8), "64-bit PCM"),
            (_fmt_body(FLOAT, 1, 8000, 2), "16-bit float"),
            (_fmt_body(6, 1, 8000, 1), "format tag 0x0006"),
            (_fmt_body(EXTENSIBLE, 1, 8000, 2, subformat=6), "format tag 0x0006"),
            (_fmt_body(EXTENSIBLE, 1, 8000, 2, subformat=PCM)[:-12] + bytes(12), "format tag 0xfffe"),
        ],
        ids=["pcm8", "pcm64", "float16", "alaw", "extensible_alaw", "extensible_foreign_guid"],
    )
    def test_sample_formats_the_oracle_also_rejects(self, tmp_path, fmt, match):
        path = _wav_file(tmp_path / "x.wav", fmt, bytes(64))
        with pytest.raises(ValueError, match=match):
            read_wav(path)
        with pytest.raises(ValueError):
            read_wav_reference(path)

    def test_rifx(self, tmp_path):
        fmt = struct.pack(">HHIIHH", PCM, 1, 8000, 16000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack(">I", 16) + fmt + b"data" + struct.pack(">I", 8) + bytes(8)
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFX" + struct.pack(">I", len(body)) + body)
        with pytest.raises(ValueError, match="RIFX"):
            read_wav(path)
        with pytest.raises(ValueError, match="unsupported WAV sample format >i2"):
            read_wav_reference(path)

    def test_rf64(self, tmp_path):
        # The oracle reads RF64; the package refuses it (it serves files over 4 GiB).
        fmt = _fmt_body(FLOAT, 1, 8000, 4)
        payload = np.arange(8, dtype="<f4").tobytes()
        tail = _chunk(b"fmt ", fmt) + b"data" + b"\xff" * 4 + payload
        riff_size = 4 + 8 + 28 + len(tail)
        ds64 = struct.pack("<QQQI", riff_size, len(payload), 8, 0)
        path = tmp_path / "x.wav"
        path.write_bytes(b"RF64" + b"\xff" * 4 + b"WAVE" + _chunk(b"ds64", ds64) + tail)
        assert np.array_equal(read_wav_reference(path).samples[0], np.arange(8))
        with pytest.raises(ValueError, match="RF64"):
            read_wav(path)

    def test_every_cut_inside_the_header(self, tmp_path):
        full = tmp_path / "full.wav"
        write_wav(full, AudioBuffer(np.zeros((2, 10)), 16000))
        raw = full.read_bytes()
        header = raw.index(b"data") + 8
        for cut in range(header):
            path = tmp_path / f"cut{cut}.wav"
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_wav(path)

    @pytest.mark.parametrize(
        "chunks, match",
        [
            (_chunk(b"fmt ", b"\x01\x00"), "fmt chunk of 2 bytes"),
            (_chunk(b"fmt ", _fmt_body(PCM, 1, 8000, 2)), "no data chunk"),
            (_chunk(b"data", bytes(4)) + _chunk(b"fmt ", _fmt_body(PCM, 1, 8000, 2)), "before the fmt"),
            (_chunk(b"fmt ", _fmt_body(PCM, 0, 8000, 2)) + _chunk(b"data", bytes(4)), "0 channels"),
            (_chunk(b"fmt ", struct.pack("<HHIIHHH", EXTENSIBLE, 1, 8000, 16000, 2, 16, 0)), "0-byte extension"),
        ],
        ids=["fmt_of_2_bytes", "no_data", "data_before_fmt", "no_channels", "extensible_without_extension"],
    )
    def test_malformed_headers(self, tmp_path, chunks, match):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        with pytest.raises(ValueError, match=match):
            read_wav(path)

    @pytest.mark.parametrize("raw", [b"OggS" + bytes(40), b"RIFF\x04\x00\x00\x00AVI "], ids=["ogg", "avi"])
    def test_not_a_wav_file(self, tmp_path, raw):
        path = tmp_path / "x.wav"
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            read_wav(path)


def test_package_imports_no_scipy():
    src = str(Path(audiozoom.__file__).resolve().parents[1])
    code = "import sys, audiozoom, audiozoom.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
