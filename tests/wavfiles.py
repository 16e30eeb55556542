"""WAV files built byte by byte, so the reader tests can declare any format
tag, channel count, sample rate or bit depth, including ones ``write_wav``
never writes."""

import struct

import numpy as np


def wav_bytes(fmt, channels, rate, bits, payload):
    """A canonical 44-byte RIFF/WAVE header, then ``payload`` as its data chunk."""
    block = channels * bits // 8
    hdr = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                      b"fmt ", 16, fmt, channels, rate, rate * block, block, bits,
                      b"data", len(payload))
    return hdr + payload


def pcm16_wav_bytes(x, rate):
    """Mono 16-bit PCM of samples ``x`` in [-1, 1], declared at ``rate`` Hz."""
    return wav_bytes(1, 1, rate, 16, np.round(np.asarray(x) * 32767.0).astype("<i2").tobytes())


def declared_rates(blob):
    """(sample rate, byte rate) that a canonical 44-byte header declares."""
    return struct.unpack("<II", blob[24:32])
