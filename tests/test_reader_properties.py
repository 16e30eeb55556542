"""Property tests of the scores-CSV, AFTX1 and WAV readers.

The scores reader is compared, bit for bit, with a row-dict reader that
groups ``csv.DictReader`` rows into one Python dict per trait and fills each
matrix cell by cell, on random valid tables; any single corruption must
raise FormatError.  AFTX1 files of random shapes must round-trip, and every
truncation of one must raise FormatError.  Every truncation of a valid WAV,
and every few-byte change to its header, either loads as a bounded
waveform or raises an AftxError; a loaded file, at 8, 16 or 44.1 kHz,
writes back as 16 kHz.
"""

import csv
import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from aftx.audio import load_wav, write_wav
from aftx.container import load_container, save_container
from aftx.corpus import (
    CONTINUOUS,
    FIVE_POINT,
    TRAITS,
    JudgeScores,
    read_scores_csv,
    write_scores_csv,
)
from aftx.errors import AftxError, FormatError
from wavfiles import declared_rates, pcm16_wav_bytes

COLUMNS = ("clip_id", "judge_id", "trait", "score")


def dict_reader_scores(path) -> dict[str, JudgeScores]:
    """Reference reader: one dict per row, one Python loop per matrix cell."""
    cells: dict[str, dict[tuple[str, str], float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                trait, key = row["trait"], (row["judge_id"], row["clip_id"])
                score = float(row["score"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{reader.line_num}: bad scores row") from exc
            data = cells.setdefault(trait, {})
            if key in data:
                raise FormatError(
                    f"{path}:{reader.line_num}: second score for {key} on {trait}")
            data[key] = score
    out: dict[str, JudgeScores] = {}
    for trait, data in cells.items():
        judges = sorted({j for j, _ in data})
        clips = sorted({c for _, c in data})
        matrix = np.empty((len(judges), len(clips)))
        for ji, judge in enumerate(judges):
            for ci, cid in enumerate(clips):
                if (judge, cid) not in data:
                    raise FormatError(f"{path}: no score for ({judge}, {cid}) on {trait}")
                matrix[ji, ci] = data[(judge, cid)]
        if not np.isfinite(matrix).all():
            ji, ci = np.argwhere(~np.isfinite(matrix))[0]
            raise FormatError(
                f"{path}: non-finite score for ({judges[ji]}, {clips[ci]}) on {trait}")
        scale = FIVE_POINT if trait in TRAITS else CONTINUOUS
        out[trait] = JudgeScores(matrix=matrix, scale=scale, trait=trait,
                                 clip_ids=clips, judge_ids=judges)
    return out


# ids may hold the csv module's delimiter and quote, which it must quote
ids = st.text(alphabet="abcj0, \"", min_size=1, max_size=4)


@st.composite
def score_tables(draw, min_side=1):
    """A valid scores table: (header, data rows, blank-line positions).

    Each trait has its own full grid of judges by clips; rows come in random
    order, the four columns in random order among 0-2 extra columns, and
    some rows carry trailing fields past the header.
    """
    traits = draw(st.lists(st.sampled_from(TRAITS + ("arousal", "valence")),
                           min_size=1, max_size=3, unique=True))
    cells = []
    for trait in traits:
        judges = draw(st.lists(ids, min_size=min_side, max_size=3, unique=True))
        clips = draw(st.lists(ids, min_size=min_side, max_size=4, unique=True))
        for judge in judges:
            for clip in clips:
                score = draw(st.floats(allow_nan=False, allow_infinity=False))
                cells.append({"clip_id": clip, "judge_id": judge, "trait": trait,
                              "score": repr(score)})
    header = draw(st.permutations(COLUMNS + ("x0", "x1")[:draw(st.integers(0, 2))]))
    rows = [[cell.get(name, "extra") for name in header] + ["tail"] * draw(st.integers(0, 1))
            for cell in draw(st.permutations(cells))]
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    return list(header), rows, blanks


def write_table(path, header, rows, blanks=()) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        buf.write("\n" * blanks.count(i))
        writer.writerow(row)
    buf.write("\n" * blanks.count(len(rows)))
    path.write_text(buf.getvalue(), newline="")


def assert_same_scores(got, expected):
    assert list(got) == list(expected)
    for trait, exp in expected.items():
        g = got[trait]
        assert g.matrix.shape == exp.matrix.shape
        assert g.matrix.tobytes() == exp.matrix.tobytes()
        assert (g.clip_ids, g.judge_ids, g.scale, g.trait) == \
            (exp.clip_ids, exp.judge_ids, exp.scale, exp.trait)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@given(table=score_tables())
def test_scores_reader_equals_dict_reader(scratch, table):
    path = scratch / "scores.csv"
    write_table(path, *table)
    assert_same_scores(read_scores_csv(path), dict_reader_scores(path))


CORRUPTIONS = ("duplicate", "drop", "short", "non_numeric", "nan")


@given(table=score_tables(min_side=2), kind=st.sampled_from(CORRUPTIONS), data=st.data())
def test_any_one_corruption_rejected(scratch, table, kind, data):
    header, rows, blanks = table
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    score = header.index("score")
    row = list(rows[i])
    if kind == "duplicate":
        row[score] = "1.0"
        rows.insert(data.draw(st.integers(0, len(rows)), label="at"), row)
    elif kind == "drop":
        del rows[i]
    elif kind == "short":
        rows[i] = row[:max(header.index(c) for c in COLUMNS)]
    else:
        row[score] = "nan" if kind == "nan" else data.draw(st.sampled_from(["", "x", "1..0"]))
        rows[i] = row
    path = scratch / "corrupt.csv"
    write_table(path, header, rows, blanks)
    with pytest.raises(FormatError) as got:
        read_scores_csv(path)
    if kind != "short":     # the dict reader accepts a short row that keeps its score
        with pytest.raises(FormatError) as expected:
            dict_reader_scores(path)
        assert str(got.value) == str(expected.value)


def test_scores_reader_memory_on_paper_sized_table(tmp_path):
    """35,200 rows (5 traits x 11 judges x 640 clips) peak under 4 MB; a
    reader that keeps a dict or a list per row needs about twice that."""
    rng = np.random.default_rng(0)
    path = tmp_path / "scores.csv"
    write_scores_csv(path, {
        trait: JudgeScores(matrix=rng.integers(1, 6, size=(11, 640)).astype(np.float64),
                           scale=FIVE_POINT, trait=trait,
                           clip_ids=[f"clip{c:04d}" for c in range(640)],
                           judge_ids=[f"j{j:02d}" for j in range(11)])
        for trait in TRAITS})
    tracemalloc.start()
    try:
        out = read_scores_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.matrix.size for s in out.values()) == 35_200
    assert peak < 4_000_000


entry_lists = st.lists(
    st.tuples(st.text(alphabet="ab/.é\u4e2d", max_size=6),
              arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
              st.booleans()),
    max_size=4, unique_by=lambda e: e[0])


@given(entries=entry_lists)
def test_container_round_trips_random_shapes(scratch, entries):
    path = scratch / "round.aftx"
    save_container(path, entries)
    loaded = load_container(path)
    assert [(n, a.shape, a.dtype, t) for n, a, t in loaded] == \
        [(n, a.shape, np.dtype(np.float64), t) for n, a, t in entries]
    assert all(a.tobytes() == b.tobytes() for (_, a, _), (_, b, _) in zip(loaded, entries))


@settings(max_examples=10)
@given(entries=entry_lists)
def test_every_container_truncation_rejected(scratch, entries):
    path = scratch / "whole.aftx"
    save_container(path, entries)
    for size in reversed(range(path.stat().st_size)):
        os.truncate(path, size)
        with pytest.raises(FormatError):
            load_container(path)


def test_container_load_allocates_the_payload_once(tmp_path):
    """Loading peaks under the payload plus 1 MiB; reading the whole file
    and then copying each entry out of it peaks at about twice the payload."""
    rng = np.random.default_rng(0)
    entries = [(f"e{i}", rng.standard_normal((64, 1024)), False) for i in range(8)]
    payload = sum(a.nbytes for _, a, _ in entries)
    path = tmp_path / "big.aftx"
    save_container(path, entries)
    tracemalloc.start()
    try:
        loaded = load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(entries)
    assert peak < payload + 2**20


wavs = st.builds(
    lambda rate, n, seed: (rate, np.random.default_rng(seed).uniform(-1, 1, n)),
    st.sampled_from([8_000, 16_000, 44_100]), st.integers(0, 300), st.integers(0, 2**16))


def load_or_aftx_error(path):
    """The loaded waveform, or None when load_wav raises an AftxError.  A
    loaded waveform is finite, peak-limited, and at most twice as many
    samples as the file has 16-bit words."""
    try:
        w = load_wav(path)
    except AftxError:
        return None
    assert np.isfinite(w.samples).all() and np.abs(w.samples).max(initial=0.0) <= 1.0
    assert len(w.samples) <= path.stat().st_size + 1
    return w


@settings(max_examples=10)
@given(wav=wavs)
def test_every_wav_truncation_loads_or_raises(scratch, wav):
    rate, x = wav
    path = scratch / "whole.wav"
    path.write_bytes(pcm16_wav_bytes(x, rate))
    w = load_or_aftx_error(path)
    assert w is not None
    write_wav(scratch / "resaved.wav", w)
    assert declared_rates((scratch / "resaved.wav").read_bytes()) == (16_000, 32_000)
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        load_or_aftx_error(path)


@given(wav=wavs, changes=st.lists(st.tuples(st.integers(0, 40), st.binary(min_size=1, max_size=4)),
                                  max_size=4),
       header_rate=st.none() | st.integers(0, 2**32 - 1))
def test_wav_header_changes_load_or_raise(scratch, wav, changes, header_rate):
    """Each change overwrites 1-4 bytes of the 44-byte header; the sample
    rate field (bytes 24-27) may also get any value."""
    rate, x = wav
    path = scratch / "changed.wav"
    path.write_bytes(pcm16_wav_bytes(x, rate))
    blob = bytearray(path.read_bytes())
    if header_rate is not None:
        changes = [(24, header_rate.to_bytes(4, "little")), *changes]
    for at, value in changes:
        blob[at:at + len(value)] = value
    path.write_bytes(bytes(blob))
    load_or_aftx_error(path)
