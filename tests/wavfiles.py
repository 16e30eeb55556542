"""WAV files built byte by byte, so the reader tests can declare any format
tag, channel count, sample rate or bit depth, including ones ``write_wav``
never writes."""

import struct

import numpy as np


def fmt_body(fmt, channels, rate, bits):
    """The 16-byte body of a ``fmt `` chunk."""
    block = channels * bits // 8
    return struct.pack("<HHIIHH", fmt, channels, rate, rate * block, block, bits)


def riff_bytes(*chunks):
    """A RIFF/WAVE file of the ``(chunk id, body)`` pairs, in order, unpadded."""
    body = b"WAVE" + b"".join(struct.pack("<4sI", cid, len(b)) + b for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def wav_bytes(fmt, channels, rate, bits, payload):
    """A canonical 44-byte RIFF/WAVE header, then ``payload`` as its data chunk."""
    return riff_bytes((b"fmt ", fmt_body(fmt, channels, rate, bits)), (b"data", payload))


def pcm16_wav_bytes(x, rate):
    """Mono 16-bit PCM of samples ``x`` in [-1, 1], declared at ``rate`` Hz."""
    return wav_bytes(1, 1, rate, 16, np.round(np.asarray(x) * 32767.0).astype("<i2").tobytes())


def declared_rates(blob):
    """(sample rate, byte rate) that a canonical 44-byte header declares."""
    return struct.unpack("<II", blob[24:32])
