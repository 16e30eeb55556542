"""The "AFTX1" tensor container.

Layout: the 5-byte magic, a little-endian uint32 manifest length, a UTF-8
JSON manifest listing ``(name, shape, trainable, offset)`` per entry, then the
concatenated little-endian float64 payloads (offsets are relative to the
payload start; the reader takes them in any order and with gaps, but
rejects two payloads that overlap).  Round-trips are bit-exact.  Each
payload is written from its own array and read once, straight into the
array that is returned.

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

from .errors import FormatError, OutOfRange, is_whole, real_array

MAGIC = b"AFTX1"

Entry = tuple[str, np.ndarray, bool]


def save_container(path, entries: list[Entry], sidecar: dict | None = None) -> None:
    """Write ``entries`` (name, float64 array, trainable flag) to ``path``.

    Raises FormatError, before anything is written, for an entry that
    ``load_container`` would reject: a non-string or repeated name, or a
    non-bool trainable flag; ShapeError for a ragged array; and, for data
    which a float64 cast would change, NotReal for complex, string or object
    data and OutOfRange for an integer beyond ±2**53; and FormatError,
    naming the sidecar's path, for a ``sidecar`` that is not strict JSON
    (a numpy scalar, NaN or infinity).
    """
    path = Path(path)
    if sidecar is not None:
        try:
            meta = json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{sidecar_path(path)}: sidecar is not JSON: {exc}") from exc
    manifest = []
    payloads = []
    offset = 0
    for name, arr, trainable in _checked_entries(entries, str(path)):
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
        sidecar_path(path).write_text(meta, encoding="utf-8")


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
        spans: list[tuple[int, int, str]] = []   # non-empty payload byte ranges
        for item in manifest:
            try:
                name, shape = item["name"], tuple(item["shape"])
                offset, trainable = item["offset"], item["trainable"]
            except (KeyError, TypeError) as exc:
                raise FormatError(f"{path}: manifest entry {item!r} lacks a field") from exc
            if not all(is_whole(n) and n >= 0 for n in (*shape, offset)):
                raise FormatError(f"{path}: entry {name!r} has a bad shape {shape} or offset {offset!r}")
            count = math.prod(shape)
            if start + offset + 8 * count > size:
                raise FormatError(f"{path}: payload truncated for entry {name!r}")
            arr = np.empty(count, dtype="<f8")
            fh.seek(start + offset)
            if fh.readinto(arr) != arr.nbytes:
                raise FormatError(f"{path}: payload of entry {name!r} ends early")
            entries.append((name, arr.reshape(shape), trainable))
            if count:
                spans.append((offset, offset + 8 * count, name))
    # names first: the sort compares two names when their ranges tie
    _checked_entries(entries, str(path))
    # in order of start, a range meets an earlier one only if it meets the one before it
    spans.sort()
    for (_, end, last), (start, _, name) in zip(spans, spans[1:]):
        if start < end:
            raise FormatError(f"{path}: payloads of entries {last!r} and {name!r} overlap")
    return entries


def _checked_entries(entries, where: str) -> list[Entry]:
    """``entries`` as a list, each array through ``real_array``: the checks
    that the writer, the reader and the digest share.  Each names ``where``
    and raises FormatError for a non-string or repeated name or a non-bool
    trainable flag, ShapeError or NotReal for an array that is not real, and
    OutOfRange for an integer beyond ±2**53, which float64 would round."""
    checked: list[Entry] = []
    names: set[str] = set()
    for name, arr, trainable in entries:
        if not isinstance(name, str):
            raise FormatError(f"{where}: entry name {name!r} is not a string")
        if name in names:
            raise FormatError(f"{where}: entry name {name!r} appears twice")
        names.add(name)
        if not isinstance(trainable, (bool, np.bool_)):
            raise FormatError(f"{where}: entry {name!r} has a non-bool trainable {trainable!r}")
        arr = real_array(arr, f"{where}: entry {name!r}")
        if arr.dtype.kind in "iu" and arr.size and not -2**53 <= arr.min() <= arr.max() <= 2**53:
            raise OutOfRange(f"{where}: entry {name!r} holds integers beyond ±2**53, "
                             f"which float64 would round")
        checked.append((name, arr, trainable))
    return checked


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def entries_digest(entries: list[Entry]) -> str:
    """SHA-256 over names, shapes and raw little-endian payloads.

    Entries are hashed in sorted-name order so the digest is independent of
    dict iteration order.  Names, flags and arrays are checked as
    ``save_container`` checks them.
    """
    h = hashlib.sha256()
    for name, arr, trainable in sorted(_checked_entries(entries, "entries_digest"),
                                       key=lambda e: e[0]):
        h.update(name.encode("utf-8"))
        h.update(str(arr.shape).encode("ascii"))
        h.update(b"T" if trainable else b"F")
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()
