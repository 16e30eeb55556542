"""The "AFTX1" tensor container.

Layout: the 5-byte magic, a little-endian uint32 manifest length, a UTF-8
JSON manifest listing ``(name, shape, trainable, offset)`` per entry, then the
concatenated little-endian float64 payloads (offsets are relative to the
payload start).  Round-trips are bit-exact.  Each payload is written from its
own array and read once, straight into the array that is returned.

An optional JSON sidecar at ``<path>.json`` carries provenance (model config,
seed, ``entries_digest``, ...); it is plain JSON, read with ``json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NotReal

MAGIC = b"AFTX1"

Entry = tuple[str, np.ndarray, bool]


def save_container(path, entries: list[Entry], sidecar: dict | None = None) -> None:
    """Write ``entries`` (name, float64 array, trainable flag) to ``path``.

    Raises FormatError, before anything is written, for an entry that
    ``load_container`` would reject: a non-string or repeated name, or a
    non-bool trainable flag; and NotReal for an array that is not real
    numbers (complex, string or object), which a float64 cast would change.
    """
    path = Path(path)
    manifest = []
    payloads = []
    offset = 0
    names: set[str] = set()
    for name, arr, trainable in entries:
        if not isinstance(name, str):
            raise FormatError(f"{path}: entry name {name!r} is not a string")
        if name in names:
            raise FormatError(f"{path}: entry name {name!r} appears twice")
        names.add(name)
        if not isinstance(trainable, (bool, np.bool_)):
            raise FormatError(f"{path}: entry {name!r} has a non-bool trainable {trainable!r}")
        arr = np.asarray(arr)
        if arr.dtype.kind not in "biuf":
            raise NotReal(f"{path}: entry {name!r} is not real numbers, got dtype {arr.dtype}")
        payload = np.ascontiguousarray(arr, dtype="<f8")
        manifest.append({
            "name": name,
            "shape": list(arr.shape),
            "trainable": bool(trainable),
            "offset": offset,
        })
        payloads.append(payload)
        offset += payload.nbytes
    mjson = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(mjson)))
        fh.write(mjson)
        for payload in payloads:
            fh.write(payload)
    if sidecar is not None:
        sidecar_path(path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_container(path) -> list[Entry]:
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(9)
        if head[:5] != MAGIC:
            raise FormatError(f"{path}: bad magic {head[:5]!r}, expected {MAGIC!r}")
        if len(head) < 9:
            raise FormatError(f"{path}: truncated header")
        (mlen,) = struct.unpack("<I", head[5:9])
        if size < 9 + mlen:
            raise FormatError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: unreadable manifest") from exc
        if not isinstance(manifest, list):
            raise FormatError(f"{path}: manifest is not a list of entries")
        start = 9 + mlen
        entries: list[Entry] = []
        names: set[str] = set()
        for item in manifest:
            try:
                name, shape = item["name"], tuple(item["shape"])
                offset, trainable = item["offset"], item["trainable"]
            except (KeyError, TypeError) as exc:
                raise FormatError(f"{path}: manifest entry {item!r} lacks a field") from exc
            if not isinstance(name, str):
                raise FormatError(f"{path}: entry name {name!r} is not a string")
            if name in names:
                raise FormatError(f"{path}: entry name {name!r} appears twice")
            names.add(name)
            if not isinstance(trainable, bool):
                raise FormatError(f"{path}: entry {name!r} has a non-bool trainable {trainable!r}")
            if not all(_is_count(n) for n in shape) or not _is_count(offset):
                raise FormatError(f"{path}: entry {name!r} has a bad shape {shape} or offset {offset!r}")
            count = math.prod(shape)
            if start + offset + 8 * count > size:
                raise FormatError(f"{path}: payload truncated for entry {name!r}")
            arr = np.empty(count, dtype="<f8")
            fh.seek(start + offset)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: payload of entry {name!r} ends early")
            entries.append((name, arr.reshape(shape), trainable))
    return entries


def _is_count(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


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
