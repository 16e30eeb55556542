"""The "AFTX1" tensor container.

Layout: the 5-byte magic, a little-endian uint32 manifest length, a UTF-8
JSON manifest listing ``(name, shape, trainable, offset)`` per entry, then the
concatenated little-endian float64 payloads (offsets are relative to the
payload start).  Round-trips are bit-exact.

An optional JSON sidecar at ``<path>.json`` carries provenance (model config,
clip id, mask kind and seed, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"AFTX1"

Entry = tuple[str, np.ndarray, bool]


def save_container(path, entries: list[Entry], sidecar: dict | None = None) -> None:
    """Write ``entries`` (name, float64 array, trainable flag) to ``path``."""
    path = Path(path)
    manifest = []
    chunks = []
    offset = 0
    for name, arr, trainable in entries:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({
            "name": name,
            "shape": list(np.asarray(arr).shape),
            "trainable": bool(trainable),
            "offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)
    mjson = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(mjson)))
        fh.write(mjson)
        for raw in chunks:
            fh.write(raw)
    if sidecar is not None:
        sidecar_path(path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_container(path) -> list[Entry]:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:5] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:5]!r}, expected {MAGIC!r}")
    if len(blob) < 9:
        raise FormatError(f"{path}: truncated header")
    (mlen,) = struct.unpack("<I", blob[5:9])
    if len(blob) < 9 + mlen:
        raise FormatError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(blob[9:9 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable manifest") from exc
    if not isinstance(manifest, list):
        raise FormatError(f"{path}: manifest is not a list of entries")
    start = 9 + mlen
    entries: list[Entry] = []
    for item in manifest:
        try:
            name, shape = item["name"], tuple(item["shape"])
            offset, trainable = item["offset"], item["trainable"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: manifest entry {item!r} lacks a field") from exc
        if not all(_is_count(n) for n in shape) or not _is_count(offset):
            raise FormatError(f"{path}: entry {name!r} has a bad shape {shape} or offset {offset!r}")
        count = math.prod(shape)
        if start + offset + 8 * count > len(blob):
            raise FormatError(f"{path}: payload truncated for entry {name!r}")
        # astype copies, so no entry keeps the whole file alive
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start + offset)
        entries.append((name, arr.astype(np.float64).reshape(shape), bool(trainable)))
    return entries


def _is_count(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def load_sidecar(path) -> dict:
    return json.loads(sidecar_path(path).read_text(encoding="utf-8"))


def entries_digest(entries: list[Entry]) -> str:
    """SHA-256 over names, shapes and raw little-endian payloads.

    Entries are hashed in sorted-name order so the digest is independent of
    dict iteration order.
    """
    h = hashlib.sha256()
    for name, arr, trainable in sorted(entries, key=lambda e: e[0]):
        h.update(name.encode("utf-8"))
        h.update(str(tuple(np.asarray(arr).shape)).encode("ascii"))
        h.update(b"T" if trainable else b"F")
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()
