"""Bit-exact round-trips through the AFTX1 tensor container."""

import json
import struct

import numpy as np
import pytest

from aftx.container import (
    entries_digest,
    load_container,
    save_container,
)
from aftx.errors import FormatError, NotReal


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    entries = [
        ("encoder.mha.q_proj.weight", rng.standard_normal((8, 8)), True),
        ("encoder.mha.q_proj.bias", rng.standard_normal(8), True),
        ("conv.0.weight", rng.standard_normal((4, 1, 3)), False),
        ("scalar", np.array(3.25), True),
    ]
    path = tmp_path / "params.aftx"
    save_container(path, entries)
    loaded = load_container(path)
    assert [e[0] for e in loaded] == [e[0] for e in entries]
    for (name, arr, tr), (name2, arr2, tr2) in zip(entries, loaded):
        assert name == name2 and tr == tr2
        assert arr.shape == arr2.shape
        assert arr.tobytes() == arr2.tobytes()


def test_magic_is_aftx1(tmp_path):
    path = tmp_path / "x.aftx"
    save_container(path, [("a", np.zeros(2), True)])
    assert path.read_bytes()[:5] == b"AFTX1"


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "spec.aftx"
    save_container(path, [("values", np.ones((3, 4)), False)],
                   sidecar={"clip_id": "c001", "kind": "frequency", "seed": 7})
    meta = json.loads((tmp_path / "spec.aftx.json").read_text(encoding="utf-8"))
    assert meta == {"clip_id": "c001", "kind": "frequency", "seed": 7}


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.aftx"
    path.write_bytes(b"WRONG" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_container(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.aftx"
    save_container(path, [("a", np.arange(16.0), True)])
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError):
        load_container(path)


def _with_manifest(path, manifest, payload):
    mjson = json.dumps(manifest).encode("utf-8")
    path.write_bytes(b"AFTX1" + struct.pack("<I", len(mjson)) + mjson + payload)


@pytest.mark.parametrize("manifest", [
    [{"name": "a", "shape": [2], "trainable": True}],
    [{"shape": [2], "offset": 0, "trainable": True}],
    [{"name": "a", "shape": [2], "offset": -8, "trainable": True}],
    [{"name": "a", "shape": [-2], "offset": 0, "trainable": True}],
    [{"name": "a", "shape": [2], "offset": 1.5, "trainable": True}],
    [{"name": "a", "shape": 2, "offset": 0, "trainable": True}],
    ["a"],
    {"a": [2]},
    [{"name": "a", "shape": [2], "offset": 0, "trainable": True},
     {"name": "a", "shape": [2], "offset": 16, "trainable": True}],
    [{"name": 3, "shape": [2], "offset": 0, "trainable": True}],
    [{"name": "a", "shape": [2], "offset": 0, "trainable": "false"}],
    [{"name": "a", "shape": [2**40], "offset": 0, "trainable": True}],
])
def test_malformed_manifest_rejected(tmp_path, manifest):
    path = tmp_path / "bad.aftx"
    _with_manifest(path, manifest, np.zeros(4).tobytes())
    with pytest.raises(FormatError):
        load_container(path)


@pytest.mark.parametrize("entries", [
    [("a", np.zeros(2), True), ("a", np.ones(2), True)],
    [(3, np.zeros(2), True)],
    [("a", np.zeros(2), "false")],
    [("a", np.zeros(2), 1)],
], ids=["duplicate", "non_string_name", "string_trainable", "int_trainable"])
def test_writer_rejects_what_the_reader_rejects(tmp_path, entries):
    path = tmp_path / "bad.aftx"
    path.write_bytes(b"old")
    with pytest.raises(FormatError):
        save_container(path, entries)
    assert path.read_bytes() == b"old"


@pytest.mark.parametrize("arr", [np.array([1 + 2j]), np.array(["1.5"]), np.array([None])],
                         ids=["complex", "string", "object"])
def test_writer_rejects_non_real_arrays(tmp_path, arr):
    """A float64 cast would keep 1+2j as 1.0, "1.5" as 1.5 and None as NaN."""
    path = tmp_path / "bad.aftx"
    path.write_bytes(b"old")
    with pytest.raises(NotReal):
        save_container(path, [("a", np.zeros(2), True), ("b", arr, True)])
    assert path.read_bytes() == b"old"


def test_entries_read_at_offsets_and_writable(tmp_path):
    path = tmp_path / "two.aftx"
    payload = np.arange(6.0).tobytes()
    _with_manifest(path, [{"name": "b", "shape": [2, 2], "offset": 16, "trainable": False},
                          {"name": "a", "shape": [], "offset": 8, "trainable": True},
                          {"name": "e", "shape": [0, 3], "offset": 48, "trainable": True}],
                   payload)
    (nb, b, tb), (na, a, ta), (ne, e, te) = load_container(path)
    assert (nb, tb, na, ta, ne, te) == ("b", False, "a", True, "e", True)
    np.testing.assert_array_equal(b, [[2.0, 3.0], [4.0, 5.0]])
    assert a.shape == () and float(a) == 1.0
    assert e.shape == (0, 3)
    assert a.flags.writeable and b.flags.writeable


def test_digest_stable_and_order_independent():
    rng = np.random.default_rng(1)
    a = ("alpha", rng.standard_normal(4), True)
    b = ("beta", rng.standard_normal(3), False)
    assert entries_digest([a, b]) == entries_digest([b, a])
    # any bit flip changes the digest
    mutated = ("alpha", a[1].copy(), True)
    mutated[1][0] += 1e-12
    assert entries_digest([mutated, b]) != entries_digest([a, b])
