"""WAV ingestion and the log-mel front-end."""

import struct

import numpy as np
import pytest

from aftx.audio import (
    SAMPLE_RATE,
    Waveform,
    load_wav,
    log_mel,
    mel_filterbank,
    resample_linear,
    write_wav,
)
from aftx.errors import FormatError, InputTooShort, UnsupportedCodec


def _wav_bytes(fmt, channels, rate, bits, payload):
    block = channels * bits // 8
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                      b"fmt ", 16, fmt, channels, rate, rate * block, block, bits,
                      b"data", len(payload))
    return hdr + payload


class TestLoadWav:
    def test_identity_path_16k_mono_pcm16(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 160_000)
        path = tmp_path / "ten_seconds.wav"
        write_wav(path, Waveform(samples=x, sample_rate=16_000))
        w = load_wav(path)
        assert len(w.samples) == 160_000
        assert w.sample_rate == SAMPLE_RATE
        np.testing.assert_allclose(w.samples, x, atol=1.0 / 32767)

    def test_8k_input_doubles_sample_count(self, tmp_path):
        n = 12_345
        x = np.sin(np.arange(n) * 0.05) * 0.3
        path = tmp_path / "eight_k.wav"
        write_wav(path, Waveform(samples=x, sample_rate=8_000))
        w = load_wav(path)
        assert abs(len(w.samples) - 2 * n) <= 1

    def test_stereo_opposite_channels_cancel(self, tmp_path):
        x = (np.sin(np.arange(4000) * 0.01) * 16000).astype("<i2")
        interleaved = np.empty(2 * len(x), dtype="<i2")
        interleaved[0::2] = x
        interleaved[1::2] = -x
        path = tmp_path / "stereo.wav"
        path.write_bytes(_wav_bytes(1, 2, 16_000, 16, interleaved.tobytes()))
        w = load_wav(path)
        assert np.max(np.abs(w.samples)) == 0.0

    def test_float32_payload(self, tmp_path):
        x = np.linspace(-0.9, 0.9, 2000).astype("<f4")
        path = tmp_path / "float.wav"
        path.write_bytes(_wav_bytes(3, 1, 16_000, 32, x.tobytes()))
        w = load_wav(path)
        np.testing.assert_allclose(w.samples, x.astype(np.float64), atol=1e-7)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "broken.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(_wav_bytes(6, 1, 8_000, 8, b"\x00" * 100))
        with pytest.raises(UnsupportedCodec):
            load_wav(path)

    def test_pcm8_rejected(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(_wav_bytes(1, 1, 16_000, 8, b"\x80" * 100))
        with pytest.raises(UnsupportedCodec):
            load_wav(path)


class TestResample:
    def test_ratio(self):
        x = np.sin(np.arange(1000) * 0.01)
        assert abs(len(resample_linear(x, 8000, 16000)) - 2000) <= 1
        assert abs(len(resample_linear(x, 44100, 16000)) - 363) <= 1

    def test_same_rate_is_copy(self):
        x = np.arange(10.0)
        y = resample_linear(x, 16000, 16000)
        np.testing.assert_array_equal(x, y)
        assert y is not x


class TestLogMel:
    def test_pure_tone_peak_bin(self):
        # oracle from the filter-bank layout: the mel bin whose triangle
        # peaks at the 1 kHz FFT bin should host the argmax in every frame
        t = np.arange(16_000) / 16_000
        w = Waveform(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t))
        spec = log_mel(w)
        peaks = spec.values.argmax(axis=0)
        assert len(set(peaks.tolist())) == 1
        bank = mel_filterbank(80, 512, 16_000)
        fft_bin = round(1000.0 / 16_000 * 512)
        expected = int(bank[:, fft_bin].argmax())
        assert abs(int(peaks[0]) - expected) <= 1
        assert bank[int(peaks[0]), fft_bin] > 0.0

    def test_all_zero_waveform_hits_floor(self):
        w = Waveform(samples=np.zeros(8000))
        spec = log_mel(w)
        np.testing.assert_array_equal(spec.values, np.log(1e-10))

    def test_frame_count_ten_seconds(self):
        w = Waveform(samples=np.zeros(160_000))
        assert log_mel(w).frames == 998  # floor((160000-400)/160)+1

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 20_000)
        a = log_mel(Waveform(samples=x)).values
        b = log_mel(Waveform(samples=x)).values
        assert a.tobytes() == b.tobytes()

    def test_too_short(self):
        with pytest.raises(InputTooShort):
            log_mel(Waveform(samples=np.zeros(100)))

    def test_filter_bank_built_once_and_read_only(self):
        bank = mel_filterbank(80, 512, 16_000)
        assert mel_filterbank(80, 512, 16_000) is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
