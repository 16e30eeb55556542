"""Audio ingestion and the log-mel front-end.

WAV parsing is hand-rolled over the RIFF chunk layout so malformed headers
and unsupported codecs raise distinct, precise errors.  Supported payloads:
16-bit PCM and 32/64-bit IEEE float, mono or stereo.  Everything is
resampled to the canonical 16 kHz by linear interpolation and peak-limited
to [-1, 1].
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InputTooShort, UnsupportedCodec

SAMPLE_RATE = 16_000

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass
class Waveform:
    samples: np.ndarray          # float64 in [-1, 1]
    sample_rate: int = SAMPLE_RATE
    source_id: str = ""

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Spectrogram:
    values: np.ndarray           # [mel_bins, frames], natural-log energy
    mel_bins: int = 80
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    source_id: str = ""

    @property
    def frames(self) -> int:
        return self.values.shape[1]


def _parse_fmt(chunk: bytes):
    if len(chunk) < 16:
        raise FormatError("fmt chunk shorter than 16 bytes")
    fmt, channels, rate, _, _, bits = struct.unpack("<HHIIHH", chunk[:16])
    if fmt == WAVE_FORMAT_EXTENSIBLE:
        if len(chunk) < 26:
            raise FormatError("extensible fmt chunk lacks a sub-format")
        fmt = struct.unpack("<H", chunk[24:26])[0]
    return fmt, channels, rate, bits


def _decode_samples(data: bytes, fmt: int, channels: int, bits: int) -> np.ndarray:
    if fmt == WAVE_FORMAT_PCM:
        if bits != 16:
            raise UnsupportedCodec(f"PCM with {bits} bits; only 16-bit PCM is supported")
        raw = np.frombuffer(data[:len(data) - len(data) % 2], dtype="<i2")
        x = raw.astype(np.float64) / 32768.0
    elif fmt == WAVE_FORMAT_IEEE_FLOAT:
        if bits == 32:
            x = np.frombuffer(data[:len(data) - len(data) % 4], dtype="<f4").astype(np.float64)
        elif bits == 64:
            x = np.frombuffer(data[:len(data) - len(data) % 8], dtype="<f8").astype(np.float64)
        else:
            raise UnsupportedCodec(f"IEEE float with {bits} bits")
    else:
        raise UnsupportedCodec(f"WAVE format tag 0x{fmt:04x}")
    if channels > 1:
        usable = len(x) - len(x) % channels
        x = x[:usable].reshape(-1, channels).mean(axis=1)
    return x


def resample_linear(x: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    if src_rate == dst_rate or len(x) == 0:
        return np.asarray(x, dtype=np.float64).copy()
    out_n = int(round(len(x) * dst_rate / src_rate))
    positions = np.arange(out_n) * (src_rate / dst_rate)
    return np.interp(positions, np.arange(len(x)), x)


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file into a mono 16 kHz peak-limited Waveform."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt_info = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack("<I", blob[pos + 4:pos + 8])
        body = blob[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt_info = _parse_fmt(body)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt_info is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")

    fmt, channels, rate, bits = fmt_info
    if channels < 1 or rate < 1:
        raise FormatError(f"{path}: nonsensical fmt fields")
    x = _decode_samples(data, fmt, channels, bits)
    x = resample_linear(x, rate, SAMPLE_RATE)
    peak = np.max(np.abs(x)) if len(x) else 0.0
    if peak > 1.0:
        x = x / peak
    return Waveform(samples=x, sample_rate=SAMPLE_RATE, source_id=path.stem)


def write_wav(path, waveform: Waveform) -> None:
    """Write 16-bit PCM mono."""
    x = np.clip(waveform.samples, -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE", b"fmt ", 16,
        WAVE_FORMAT_PCM, 1, waveform.sample_rate,
        waveform.sample_rate * 2, 2, 16, b"data", len(pcm),
    )
    Path(path).write_bytes(hdr + pcm)


# ---------------------------------------------------------------------------
# log-mel front-end
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache
def mel_filterbank(mel_bins: int, fft_size: int, sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Triangular filters [mel_bins, fft_size//2 + 1], peaks at 1, spanning
    0 Hz to Nyquist on the mel scale.

    Built once per argument triple; the cached array is read-only, so no
    caller can change the bank that every later call receives."""
    n_freqs = fft_size // 2 + 1
    freqs = np.arange(n_freqs) * sample_rate / fft_size
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2), mel_bins + 2))
    bank = np.zeros((mel_bins, n_freqs))
    for b in range(mel_bins):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - freqs) / max(hi - center, 1e-12)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.setflags(write=False)
    return bank


def log_mel(w: Waveform, mel_bins: int = 80, frame_length_ms: float = 25.0,
            frame_shift_ms: float = 10.0, floor: float = 1e-10) -> Spectrogram:
    """Hann-windowed power STFT through a mel filter bank, floored natural log.

    frames = floor((num_samples - frame_length) / frame_shift) + 1.
    Deterministic: identical inputs give bit-identical outputs.
    """
    x = np.asarray(w.samples, dtype=np.float64)
    frame_length = int(round(w.sample_rate * frame_length_ms / 1000.0))
    frame_shift = int(round(w.sample_rate * frame_shift_ms / 1000.0))
    if len(x) < frame_length:
        raise InputTooShort(
            f"waveform of {len(x)} samples is shorter than one {frame_length}-sample frame")
    num_frames = (len(x) - frame_length) // frame_shift + 1

    fft_size = 1
    while fft_size < frame_length:
        fft_size *= 2
    window = np.hanning(frame_length)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_length)[::frame_shift][:num_frames]
    spectrum = np.fft.rfft(frames * window, n=fft_size, axis=1)
    power = np.abs(spectrum) ** 2                          # [frames, n_freqs]
    bank = mel_filterbank(mel_bins, fft_size, w.sample_rate)
    mel_power = power @ bank.T                             # [frames, mel_bins]
    values = np.log(np.maximum(mel_power, floor)).T        # [mel_bins, frames]
    return Spectrogram(values=values, mel_bins=mel_bins,
                       frame_length_ms=frame_length_ms,
                       frame_shift_ms=frame_shift_ms, source_id=w.source_id)
