"""WAV ingestion and the log-mel front-end."""

import tracemalloc

import numpy as np
import pytest

from aftx.audio import (
    Waveform,
    load_wav,
    log_mel,
    mel_filterbank,
    resample_linear,
    write_wav,
)
from aftx.errors import (
    FormatError,
    InputTooShort,
    NonFinite,
    NotReal,
    OutOfRange,
    ShapeError,
    UnsupportedCodec,
)
from wavfiles import declared_rates, fmt_body, pcm16_wav_bytes, riff_bytes, wav_bytes

# samples that are not real numbers, each long enough for one log-mel frame
NOT_REAL = {
    "complex": np.full(4000, 0.5 + 0.5j),
    "string": np.full(4000, "0.5"),
    "object": np.zeros(4000).astype(object),
}


def _traced_peak(fn, *args):
    """Bytes that ``fn(*args)`` allocates at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadWav:
    def test_identity_path_16k_mono_pcm16(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.5, 0.5, 160_000)
        path = tmp_path / "ten_seconds.wav"
        write_wav(path, Waveform(samples=x))
        assert declared_rates(path.read_bytes()) == (16_000, 32_000)
        w = load_wav(path)
        assert len(w.samples) == 160_000
        np.testing.assert_allclose(w.samples, x, atol=1.0 / 32767)

    def test_8k_input_doubles_sample_count(self, tmp_path):
        n = 12_345
        x = np.sin(np.arange(n) * 0.05) * 0.3
        path = tmp_path / "eight_k.wav"
        path.write_bytes(pcm16_wav_bytes(x, 8_000))
        w = load_wav(path)
        assert abs(len(w.samples) - 2 * n) <= 1

    def test_stereo_opposite_channels_cancel(self, tmp_path):
        x = (np.sin(np.arange(4000) * 0.01) * 16000).astype("<i2")
        interleaved = np.empty(2 * len(x), dtype="<i2")
        interleaved[0::2] = x
        interleaved[1::2] = -x
        path = tmp_path / "stereo.wav"
        path.write_bytes(wav_bytes(1, 2, 16_000, 16, interleaved.tobytes()))
        w = load_wav(path)
        assert np.max(np.abs(w.samples)) == 0.0

    def test_float32_payload(self, tmp_path):
        x = np.linspace(-0.9, 0.9, 2000).astype("<f4")
        path = tmp_path / "float.wav"
        path.write_bytes(wav_bytes(3, 1, 16_000, 32, x.tobytes()))
        w = load_wav(path)
        np.testing.assert_allclose(w.samples, x.astype(np.float64), atol=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype, bits", [("<f4", 32), ("<f8", 64)])
    def test_non_finite_float_samples_rejected(self, tmp_path, bad, dtype, bits):
        x = np.linspace(-0.9, 0.9, 2000)
        x[700] = bad
        path = tmp_path / "nan.wav"
        path.write_bytes(wav_bytes(3, 1, 16_000, bits, x.astype(dtype).tobytes()))
        with pytest.raises(NonFinite):
            load_wav(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "broken.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(wav_bytes(6, 1, 8_000, 8, b"\x00" * 100))
        with pytest.raises(UnsupportedCodec):
            load_wav(path)

    def test_pcm8_rejected(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(wav_bytes(1, 1, 16_000, 8, b"\x80" * 100))
        with pytest.raises(UnsupportedCodec):
            load_wav(path)

    @pytest.mark.parametrize("rate", [1, 7_999])
    def test_sample_rate_below_8k_rejected(self, tmp_path, rate):
        # resampling a 1 Hz header's 10 samples to 16 kHz would make 160,000
        path = tmp_path / "slow.wav"
        path.write_bytes(wav_bytes(1, 1, rate, 16, b"\x00\x01" * 10))
        with pytest.raises(FormatError):
            load_wav(path)

    @pytest.mark.parametrize("fmt, channels, bits, payload", [
        (1, 1, 16, b"\x00\x01" * 10 + b"\x02"),       # 10 samples and a stray byte
        (1, 2, 16, b"\x00\x01" * 11),                 # 5 stereo frames and half a frame
        (3, 1, 32, np.zeros(10, "<f4").tobytes() + b"\x00\x00"),  # a partial float32
    ], ids=["pcm16-partial-sample", "stereo-partial-frame", "float32-partial-sample"])
    def test_partial_sample_or_frame_rejected(self, tmp_path, fmt, channels, bits, payload):
        path = tmp_path / "partial.wav"
        path.write_bytes(wav_bytes(fmt, channels, 16_000, bits, payload))
        with pytest.raises(FormatError):
            load_wav(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        # a 16000-sample file cut to 978 samples still declares 32000 data bytes
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(samples=np.zeros(16_000)))
        path.write_bytes(path.read_bytes()[:44 + 2 * 978])
        with pytest.raises(FormatError):
            load_wav(path)

    def test_chunk_error_names_the_chunk_id_as_bytes(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(samples=np.zeros(1000)))
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match=r"b'data' chunk declares 2000 bytes, 1990 remain"):
            load_wav(path)

    @pytest.mark.parametrize("cid, body", [
        (b"data", np.array([-5, -6], "<i2").tobytes()),      # would replace the first
        (b"fmt ", fmt_body(1, 2, 16_000, 16)),               # would re-read it as stereo
    ], ids=["data", "fmt"])
    def test_repeated_chunk_rejected(self, tmp_path, cid, body):
        path = tmp_path / "twice.wav"
        path.write_bytes(riff_bytes(
            (b"fmt ", fmt_body(1, 1, 16_000, 16)),
            (b"data", np.array([1000, 2000, 3000, 4000], "<i2").tobytes()), (cid, body)))
        with pytest.raises(FormatError, match=f"a second {cid!r} chunk"):
            load_wav(path)

    def test_ten_second_clip_peaks_under_2_mib(self, tmp_path):
        # the file's bytes (0.31 MiB) and one float64 array of its samples
        # (1.22 MiB); no chunk copy, resampled copy or |x| array
        path = tmp_path / "ten_seconds.wav"
        x = np.random.default_rng(0).uniform(-0.9, 0.9, 160_000)
        write_wav(path, Waveform(samples=x))
        load_wav(path)
        assert _traced_peak(load_wav, path) <= 2 * 2**20


class TestWriteWav:
    """write_wav rejects what it cannot write faithfully, before it writes."""

    @pytest.mark.parametrize("shape", [(2, 800), (800, 2), ()],
                             ids=["channels-first", "channels-last", "scalar"])
    def test_samples_not_1d_rejected(self, tmp_path, shape):
        path = tmp_path / "multi.wav"
        with pytest.raises(ShapeError):
            write_wav(path, Waveform(samples=np.zeros(shape)))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        path = tmp_path / "nan.wav"
        x = np.zeros(800)
        x[123] = bad
        with pytest.raises(NonFinite):
            write_wav(path, Waveform(samples=x))
        assert not path.exists()

    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_samples_not_real_rejected(self, tmp_path, kind):
        # a cast to 16-bit PCM would drop an imaginary part or fail on strings
        path = tmp_path / "not_real.wav"
        with pytest.raises(NotReal):
            write_wav(path, Waveform(samples=NOT_REAL[kind]))
        assert not path.exists()

    @pytest.mark.parametrize("samples", [np.array([1000, -1000, 0], dtype=np.int16),
                                         np.array([0.5, -1.0, 1.0 + 1e-9])],
                             ids=["int16-pcm", "just-above-one"])
    def test_samples_outside_unit_range_rejected(self, tmp_path, samples):
        # they were clipped: these int16 values read back as [0.99997, -0.99997, 0]
        path = tmp_path / "loud.wav"
        with pytest.raises(OutOfRange):
            write_wav(path, Waveform(samples=samples))
        assert not path.exists()

    def test_unit_range_endpoints_written(self, tmp_path):
        path = tmp_path / "full_scale.wav"
        write_wav(path, Waveform(samples=np.array([-1.0, 1.0, 0.0])))
        np.testing.assert_array_equal(load_wav(path).samples * 32768, [-32767, 32767, 0])


class TestResample:
    def test_ratio(self):
        x = np.sin(np.arange(1000) * 0.01)
        assert abs(len(resample_linear(x, 8000)) - 2000) <= 1
        assert abs(len(resample_linear(x, 44100)) - 363) <= 1


class TestLogMel:
    def test_pure_tone_peak_bin(self):
        # oracle from the filter-bank layout: the mel bin whose triangle
        # peaks at the 1 kHz FFT bin should host the argmax in every frame
        t = np.arange(16_000) / 16_000
        w = Waveform(samples=0.5 * np.sin(2 * np.pi * 1000.0 * t))
        spec = log_mel(w)
        peaks = spec.values.argmax(axis=0)
        assert len(set(peaks.tolist())) == 1
        bank = mel_filterbank()
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
        bank = mel_filterbank()
        assert mel_filterbank() is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_samples_rejected(self, bad):
        x = np.zeros(4000)
        x[1234] = bad
        with pytest.raises(NonFinite):
            log_mel(Waveform(samples=x))

    @pytest.mark.parametrize("shape", [(2, 4000), (4000, 2), ()],
                             ids=["channels-first", "channels-last", "scalar"])
    def test_samples_not_1d_rejected(self, shape):
        with pytest.raises(ShapeError):
            log_mel(Waveform(samples=np.zeros(shape)))

    @pytest.mark.parametrize("kind", NOT_REAL)
    def test_samples_not_real_rejected(self, kind):
        # a float64 cast would drop an imaginary part or parse the strings
        with pytest.raises(NotReal):
            log_mel(Waveform(samples=NOT_REAL[kind]))

    # ids keep the frames-kwargsN-frame length-frame shift form, so each case
    # reads the same in results of earlier versions of the suite
    @pytest.mark.parametrize("num_frames", [1, 127, 128, 129, 998], ids=[
        "1-kwargs0-400-160", "127-kwargs1-400-160", "128-kwargs2-400-160",
        "129-kwargs3-400-160", "998-kwargs4-400-160"])
    def test_equals_whole_array_formula(self, num_frames):
        """Block streaming gives the values and layout of the formula applied
        to all frames at once, bit for bit: 400-sample frames every 160
        samples, zero-padded to a 512-point transform."""
        rng = np.random.default_rng(num_frames)
        x = rng.uniform(-1, 1, 400 + (num_frames - 1) * 160 + 80)
        frames = np.lib.stride_tricks.sliding_window_view(x, 400)[::160][:num_frames]
        spectrum = np.fft.rfft(frames * np.hanning(400), n=512, axis=1)
        power = np.abs(spectrum) ** 2
        expected = np.log(np.maximum(power @ mel_filterbank().T, 1e-10)).T
        got = log_mel(Waveform(samples=x)).values
        assert got.shape == (80, num_frames)
        assert np.array_equal(got, expected)
        assert got.strides == expected.strides

    def test_ten_second_clip_peaks_under_4_mib_above_input(self):
        # the [998, 257] power spectrum (1.96 MiB), one 128-frame block and
        # its transform (1 MiB together) and the [998, 80] output (0.61 MiB)
        w = Waveform(samples=np.random.default_rng(1).uniform(-1, 1, 160_000))
        log_mel(w)
        assert _traced_peak(log_mel, w) <= 4 * 2**20
