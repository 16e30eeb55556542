"""The array contract of ``aftx``'s input boundaries, as properties.

Each boundary that takes an array from outside the program gets one
malformed array argument, and valid others: a ragged nested list, complex,
string or object data, a NaN or infinite value, or an array of another rank
than the boundary takes.  The call either returns or raises an AftxError:
never a bare numpy or Python exception, and never a warning.  Then the
calls that a boundary must reject are pinned to the error it names.
(``load_wav``'s samples come from a file; test_reader_properties.py
corrupts those.)

A size, count or stride argument must be an integer, Python's or numpy's,
and not a bool: a float, a string or a bool raises the boundary's named
error, never a bare TypeError, and True is not taken as 1.  A seed must
also be non-negative, and any other seed raises InvalidSeed.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aftx.audio import Spectrogram, Waveform, log_mel, write_wav
from aftx.augment import augment_corpus, sample_mask_regions
from aftx.container import entries_digest, save_container
from aftx.corpus import (FIVE_POINT, AnnotatedClip, JudgeScores, binarize_majority, make_folds,
                         summarize_continuous)
from aftx.errors import AftxError, HeadMismatch, InvalidSeed, NonFinite, NotReal, ShapeError
from aftx.layers import positional_encoding
from aftx.metrics import ConfusionMatrix, pearson
from aftx.tensor import Tensor, conv1d, multi_head_attention

# name -> (the rank of the array the boundary takes, or None for any rank;
# the call given that argument ``a``, a valid array ``v`` for any other
# array argument, and a scratch directory ``d``)
BOUNDARIES = {
    "Tensor": (None, lambda a, v, d: Tensor(a)),
    "write_wav": (1, lambda a, v, d: write_wav(d / "x.wav", Waveform(a))),
    "log_mel": (1, lambda a, v, d: log_mel(Waveform(a))),
    "save_container": (None, lambda a, v, d: save_container(d / "x.aftx", [("a", a, True)])),
    "entries_digest": (None, lambda a, v, d: entries_digest([("a", a, True)])),
    "binarize_majority": (2, lambda a, v, d: binarize_majority(JudgeScores(a, FIVE_POINT, "EX"))),
    "summarize_continuous.times": (1, lambda a, v, d: summarize_continuous(a, v, 0.0, 2.0)),
    "summarize_continuous.values": (1, lambda a, v, d: summarize_continuous(v, a, 0.0, 2.0)),
    "pearson.x": (1, lambda a, v, d: pearson(a, v)),
    "pearson.y": (1, lambda a, v, d: pearson(v, a)),
    "from_predictions.y_true": (1, lambda a, v, d: ConfusionMatrix.from_predictions(a, v)),
    "from_predictions.y_pred": (1, lambda a, v, d: ConfusionMatrix.from_predictions(v, a)),
    "augment_corpus": (2, lambda a, v, d: [s.values for s, _ in
                                           augment_corpus([Spectrogram(a, "x")], 0)]),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


@st.composite
def valid_arrays(draw, rank):
    """A float array of ``rank`` (any of 0-3 for None) with sides 0-4 and
    values in {0, 1, 2}: labels, scores, samples and times alike."""
    ndim = draw(st.integers(0, 3)) if rank is None else rank
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim)))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


def _with(v: np.ndarray, index: int, value: float) -> np.ndarray:
    out = v.copy()
    if out.size:
        out.flat[index % out.size] = value
    return out


# kind -> a strategy for the malformed argument, given a valid array v
MALFORMED = {
    "ragged": lambda v: st.lists(st.integers(0, 3), min_size=2, max_size=4)
                          .filter(lambda sides: len(set(sides)) > 1)
                          .map(lambda sides: [[0.0] * n for n in sides]),
    "complex": lambda v: st.just(v + 1j),
    "str": lambda v: st.just(v.astype(str)),
    "object": lambda v: st.just(v.astype(object)),
    "nan": lambda v: st.integers(0, 63).map(lambda i: _with(v, i, np.nan)),
    "inf": lambda v: st.tuples(st.integers(0, 63), st.sampled_from([np.inf, -np.inf]))
                       .map(lambda iv: _with(v, *iv)),
    "rank": lambda v: st.sampled_from([v[None], np.float64(1.0)]),
}


@pytest.mark.parametrize("name", BOUNDARIES)
@given(data=st.data())
def test_malformed_array_returns_or_raises_aftx_error(scratch, name, data):
    rank, call = BOUNDARIES[name]
    valid = data.draw(valid_arrays(rank), label="valid")
    kind = data.draw(st.sampled_from(sorted(MALFORMED)), label="kind")
    bad = data.draw(MALFORMED[kind](valid), label="malformed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(bad, valid, scratch)
        except AftxError:
            pass


VECTOR = np.array([0.0, 1.0, 2.0])
SPEC = np.linspace(-1.0, 1.0, 80 * 100).reshape(80, 100)   # wide enough to mask

# (error, boundary, what the malformed argument is, the argument, a valid
# other argument): each call returned a value, or raised a bare numpy error,
# before the boundary checked its argument
NAMED = [
    *[(NotReal, name, kind, bad, base)
      for name, base in (("pearson.x", VECTOR), ("summarize_continuous.values", VECTOR),
                         ("binarize_majority", SPEC), ("augment_corpus", SPEC))
      for kind, bad in (("str", base.astype(str)), ("complex", base + 1j))],
    (NonFinite, "augment_corpus", "nan", np.full((80, 100), np.nan), None),
    *[(ShapeError, name, "ragged", [[0, 1], [1]], VECTOR)
      for name in ("from_predictions.y_true", "pearson.x", "summarize_continuous.times",
                   "save_container", "entries_digest", "write_wav", "log_mel",
                   "binarize_majority")],
]


@pytest.mark.parametrize("error, name, bad, other", [case[:2] + case[3:] for case in NAMED],
                         ids=[f"{name}-{kind}" for _, name, kind, _, _ in NAMED])
def test_malformed_array_raises_named_error(scratch, error, name, bad, other):
    with pytest.raises(error):
        BOUNDARIES[name][1](bad, other, scratch)


def _attention(heads):
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    return multi_head_attention(Tensor(np.ones((3, 4))), heads, *[eye, zero] * 4)


# (error, what the size argument is, the call): before the boundary checked
# its sizes, each call raised a bare TypeError or another named error, or
# took True as 1
SIZES = [
    (ShapeError, "positional_encoding-float-dim", lambda: positional_encoding(3, 4.0)),
    (ShapeError, "positional_encoding-bool-frames", lambda: positional_encoding(True, 4)),
    (ShapeError, "positional_encoding-str-frames", lambda: positional_encoding("3", 4)),
    (ShapeError, "positional_encoding-bool-dim", lambda: positional_encoding(3, True)),
    (ShapeError, "conv1d-bool-stride",
     lambda: conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)),
                    stride=True)),
    (HeadMismatch, "multi_head_attention-bool-heads", lambda: _attention(True)),
]


@pytest.mark.parametrize("error, call", [(e, c) for e, _, c in SIZES],
                         ids=[name for _, name, _ in SIZES])
def test_size_that_is_not_a_whole_number_raises_named_error(error, call):
    with pytest.raises(error):
        call()


def test_numpy_integer_sizes_are_taken():
    assert positional_encoding(np.int64(3), np.int32(4)).shape == (3, 4)
    assert _attention(np.int64(2)).shape == (3, 4)


CLIPS = [AnnotatedClip(str(i), "", binary_labels={"EX": i % 2}) for i in range(10)]
SEEDED = {
    "augment_corpus": lambda seed: [v.values for v, _ in
                                    augment_corpus([Spectrogram(SPEC, "x")], seed)],
    "sample_mask_regions": lambda seed: sample_mask_regions(80, "freq", seed),
    "make_folds": lambda seed: list(make_folds(CLIPS, "EX", seed=seed).assignments.values()),
}

# (boundary, what the seed is, the seed): before the boundaries checked
# their seeds, each call raised numpy's bare ValueError or TypeError, or
# took the seed (True as 1, "7" as a string, None as fresh entropy)
SEEDS = [(name, kind, seed) for name in SEEDED
         for kind, seed in (("negative", -1), ("negative-numpy", np.int64(-1)),
                            ("float", 1.5), ("bool", True), ("str", "7"), ("none", None))]


@pytest.mark.parametrize("name, seed", [(n, s) for n, _, s in SEEDS],
                         ids=[f"{name}-{kind}" for name, kind, _ in SEEDS])
def test_seed_that_is_not_a_non_negative_whole_number_raises_invalid_seed(name, seed):
    with pytest.raises(InvalidSeed):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_numpy_integer_seeds_are_taken(name):
    for expected, got in zip(SEEDED[name](7), SEEDED[name](np.int64(7))):
        assert np.array_equal(expected, got)
