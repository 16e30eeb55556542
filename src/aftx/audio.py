"""Audio ingestion and the log-mel front-end.

WAV parsing is hand-rolled over the RIFF chunk layout so malformed headers
and unsupported codecs raise distinct, precise errors.  Supported payloads:
16-bit PCM and 32/64-bit IEEE float, mono or stereo.  Everything is
resampled to the canonical 16 kHz by linear interpolation and peak-limited
to [-1, 1].  A sample rate below 8 kHz, which would make resampling
multiply the sample count by more than two, a second fmt or data chunk, a
data chunk that ends inside a sample or frame, and a float payload with NaN
or infinite samples are rejected.

The front end is the paper's one configuration, so each of its sizes is a
constant: ``SAMPLE_RATE`` = 16 kHz audio, frames of ``FRAME_LENGTH`` = 400
samples (25 ms) every ``FRAME_SHIFT`` = 160 samples (10 ms), each
zero-padded to a ``FFT_SIZE`` = 512-point FFT, and ``MEL_BINS`` = 80 mel
bins, with the mel power floored at ``LOG_FLOOR`` = 1e-10 before the log.

Both stages stream a clip rather than copy it whole.  ``load_wav`` reads its
chunks through a memoryview of the file and keeps one float64 array of the
samples, which a 16 kHz file never leaves.  ``log_mel`` windows and
transforms 128 frames at a time in one reused zero-padded block, so the
only array that grows with the clip besides its input and output is the
[frames, n_freqs] power spectrum; its results equal the whole-array
formula bit for bit.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InputTooShort, OutOfRange, UnsupportedCodec, finite, real_array

SAMPLE_RATE = 16_000
MEL_BINS = 80
FRAME_LENGTH = 400      # 25 ms
FRAME_SHIFT = 160       # 10 ms
FFT_SIZE = 512          # FRAME_LENGTH rounded up to a power of two
LOG_FLOOR = 1e-10

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass
class Waveform:
    samples: np.ndarray          # float64 in [-1, 1], at SAMPLE_RATE
    source_id: str = ""


@dataclass
class Spectrogram:
    values: np.ndarray           # [mel_bins, frames], natural-log energy
    source_id: str = ""

    @property
    def frames(self) -> int:
        return self.values.shape[1]


def _parse_fmt(chunk: memoryview):
    if len(chunk) < 16:
        raise FormatError("fmt chunk shorter than 16 bytes")
    fmt, channels, rate, _, _, bits = struct.unpack("<HHIIHH", chunk[:16])
    if fmt == WAVE_FORMAT_EXTENSIBLE:
        if len(chunk) < 26:
            raise FormatError("extensible fmt chunk lacks a sub-format")
        fmt = struct.unpack("<H", chunk[24:26])[0]
    return fmt, channels, rate, bits


def _decode_samples(data: memoryview, fmt: int, channels: int, bits: int) -> np.ndarray:
    if fmt == WAVE_FORMAT_PCM:
        if bits != 16:
            raise UnsupportedCodec(f"PCM with {bits} bits; only 16-bit PCM is supported")
        dtype = "<i2"
    elif fmt == WAVE_FORMAT_IEEE_FLOAT:
        if bits not in (32, 64):
            raise UnsupportedCodec(f"IEEE float with {bits} bits")
        dtype = f"<f{bits // 8}"
    else:
        raise UnsupportedCodec(f"WAVE format tag 0x{fmt:04x}")
    frame = channels * bits // 8
    if len(data) % frame:
        raise FormatError(f"data chunk of {len(data)} bytes is not a whole number of "
                          f"{frame}-byte frames ({channels} channels of {bits} bits)")
    x = np.frombuffer(data, dtype=dtype).astype(np.float64)
    if fmt == WAVE_FORMAT_PCM:
        x /= 32768.0
    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
    return x


def resample_linear(x: np.ndarray, src_rate: int) -> np.ndarray:
    """``x``, sampled at ``src_rate``, linearly interpolated to ``SAMPLE_RATE``."""
    if len(x) == 0:  # np.interp rejects an empty xp
        return np.empty(0)
    out_n = int(round(len(x) * SAMPLE_RATE / src_rate))
    positions = np.arange(out_n) * (src_rate / SAMPLE_RATE)
    return np.interp(positions, np.arange(len(x)), x)


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a mono 16 kHz peak-limited Waveform."""
    path = Path(path)
    blob = memoryview(path.read_bytes())  # chunk slices are views, not copies
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    chunks: dict[bytes, memoryview] = {}     # the fmt and data chunks' bodies
    pos = 12
    while pos + 8 <= len(blob):
        cid = bytes(blob[pos:pos + 4])
        (size,) = struct.unpack("<I", blob[pos + 4:pos + 8])
        if pos + 8 + size > len(blob):
            raise FormatError(f"{path}: {cid!r} chunk declares {size} bytes, "
                              f"{len(blob) - pos - 8} remain")
        if cid in (b"fmt ", b"data"):
            if cid in chunks:
                raise FormatError(f"{path}: a second {cid!r} chunk")
            chunks[cid] = blob[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if len(chunks) < 2:
        raise FormatError(f"{path}: missing fmt or data chunk")

    fmt, channels, rate, bits = _parse_fmt(chunks[b"fmt "])
    data = chunks[b"data"]
    if channels < 1:
        raise FormatError(f"{path}: fmt declares no channels")
    if rate < 8_000:
        raise FormatError(f"{path}: sample rate {rate} Hz is below 8000 Hz")
    x = finite(_decode_samples(data, fmt, channels, bits), f"{path}: samples")
    if rate != SAMPLE_RATE:
        x = resample_linear(x, rate)
    # equals max(|x|) exactly, with no |x| temporary
    peak = max(x.max(), -x.min()) if len(x) else 0.0
    if peak > 1.0:
        x /= peak  # x is this call's own array
    return Waveform(samples=x, source_id=path.stem)


def write_wav(path, waveform: Waveform) -> None:
    """Write 16-bit PCM mono at ``SAMPLE_RATE``.  Before anything is written,
    samples that are ragged or not 1-D raise ShapeError, not real NotReal,
    NaN or infinite NonFinite, and outside [-1, 1] OutOfRange."""
    x = finite(real_array(waveform.samples, "write_wav samples", ndim=1), "write_wav samples")
    if len(x) and (x.min() < -1.0 or x.max() > 1.0):
        raise OutOfRange(f"write_wav samples span [{x.min()}, {x.max()}], not within [-1, 1]")
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE", b"fmt ", 16,
        WAVE_FORMAT_PCM, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16, b"data", len(pcm),
    )
    Path(path).write_bytes(hdr + pcm)


# ---------------------------------------------------------------------------
# log-mel front-end
# ---------------------------------------------------------------------------

# frames windowed and transformed together in log_mel
_BLOCK_FRAMES = 128


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular filters [MEL_BINS, FFT_SIZE//2 + 1] that peak at 1 and span
    0 Hz to Nyquist on the HTK mel scale, mel = 2595 log10(1 + f/700).

    Built once; the cached array is read-only, so no caller can change the
    bank that every later call receives."""
    freqs = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE
    top = 2595.0 * np.log10(1.0 + (SAMPLE_RATE / 2) / 700.0)
    edges = 700.0 * (np.power(10.0, np.linspace(0.0, top, MEL_BINS + 2) / 2595.0) - 1.0)
    lo, center, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (freqs - lo) / (center - lo)
    falling = (hi - freqs) / (hi - center)
    bank = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.setflags(write=False)
    return bank


def log_mel(w: Waveform) -> Spectrogram:
    """Hann-windowed power STFT through a ``MEL_BINS`` mel filter bank,
    floored natural log.

    frames = floor((num_samples - FRAME_LENGTH) / FRAME_SHIFT) + 1.
    The frames are windowed and transformed ``_BLOCK_FRAMES`` at a time in
    one reused zero-padded [block, FFT_SIZE] buffer, and their magnitudes
    are written straight into the one [frames, n_freqs] power array; the
    mel product then runs on the whole array, and the floor and log run in
    place on its result.  Every value equals, bit for bit, the whole-array
    formula log(max(|rfft(frames * window, n=FFT_SIZE)|² @ bankᵀ, LOG_FLOOR)):
    each frame's transform does not depend on the rows beside it, while the
    mel product is left whole because BLAS may sum a block's rows in a
    different order.  Deterministic: identical inputs give bit-identical
    outputs.  Samples must be 1-D, real and finite.
    """
    x = finite(real_array(w.samples, "log_mel samples", ndim=1), "log_mel samples")
    if len(x) < FRAME_LENGTH:
        raise InputTooShort(
            f"waveform of {len(x)} samples is shorter than one {FRAME_LENGTH}-sample frame")
    num_frames = (len(x) - FRAME_LENGTH) // FRAME_SHIFT + 1

    window = np.hanning(FRAME_LENGTH)
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LENGTH)[::FRAME_SHIFT][:num_frames]
    power = np.empty((num_frames, FFT_SIZE // 2 + 1))     # [frames, n_freqs]
    block = np.zeros((min(_BLOCK_FRAMES, num_frames), FFT_SIZE))  # zero tail written once
    for r in range(0, num_frames, _BLOCK_FRAMES):
        n = min(_BLOCK_FRAMES, num_frames - r)
        np.multiply(frames[r:r + n], window, out=block[:n, :FRAME_LENGTH])
        np.abs(np.fft.rfft(block[:n]), out=power[r:r + n])
    power *= power
    mel_power = power @ mel_filterbank().T                 # [frames, mel_bins]
    np.maximum(mel_power, LOG_FLOOR, out=mel_power)
    values = np.log(mel_power, out=mel_power).T            # [mel_bins, frames]
    return Spectrogram(values=values, source_id=w.source_id)
