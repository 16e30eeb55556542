"""The input contracts of ``aftx``'s boundaries, as exact properties.

Each boundary that takes an array from outside the program is a row of
``BOUNDARIES``, and gets one malformed array argument, and valid others: a
ragged nested list, complex, string or object data, a NaN or infinite
value, or an array of another rank than the boundary takes.  Each kind
raises the error that the broken contract names,

    ragged, rank            ShapeError
    complex, str, object    NotReal
    nan, inf                NonFinite

unless the row names another, or None where its contract takes the value
and the call returns.  No call raises another class, a bare numpy or
Python exception, or a warning.  (``load_wav``'s samples come from a file;
test_reader_properties.py corrupts those.)

A size, count, stride or axis argument must be an integer, Python's or
numpy's, and not a bool: a float, a string or a bool raises the boundary's
named error, never a bare TypeError, and True is not taken as 1.  A
single number (a learning rate, a window bound, a noise scale) must be one
finite real number and not a bool, which raises NotReal, though a bool
array is real label input; a learning rate must also be non-negative.
Confusion counts must be non-negative whole numbers (OutOfRange) in a
[2, 2] matrix.  A seed must be a non-negative whole number; any other
seed raises InvalidSeed.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftx.audio import Spectrogram, Waveform, log_mel, write_wav
from aftx.augment import augment_corpus, sample_mask_regions
from aftx.container import entries_digest, save_container
from aftx.corpus import (CONTINUOUS, FIVE_POINT, AnnotatedClip, JudgeScores, binarize_majority,
                         make_folds, summarize_continuous, synthetic_judge_scores)
from aftx.errors import (AftxError, HeadMismatch, InvalidSeed, LabelError, NonFinite, NotReal,
                         OutOfRange, ShapeError)
from aftx.layers import positional_encoding
from aftx.metrics import ConfusionMatrix, pearson, phi
from aftx.optim import AdamW
from aftx.tensor import Tensor, conv1d, multi_head_attention, softmax_cross_entropy, tmean, transpose


def _with(v: np.ndarray, index: int, value: float) -> np.ndarray:
    out = v.copy()
    out.flat[index % out.size] = value
    return out


# kind -> (the error it raises by default; a strategy for the malformed
# argument, given a valid array v, which holds an element for nan and inf)
MALFORMED = {
    "ragged": (ShapeError, lambda v: st.lists(st.integers(0, 3), min_size=2, max_size=4,
                                              unique=True)
                                       .map(lambda sides: [[0.0] * n for n in sides])),
    "complex": (NotReal, lambda v: st.just(v + 1j)),
    "str": (NotReal, lambda v: st.just(v.astype(str))),
    "object": (NotReal, lambda v: st.just(v.astype(object))),
    "nan": (NonFinite, lambda v: st.integers(0, 63).map(lambda i: _with(v, i, np.nan))),
    "inf": (NonFinite, lambda v: st.tuples(st.integers(0, 63), st.sampled_from([np.inf, -np.inf]))
                                   .map(lambda iv: _with(v, *iv))),
    "rank": (ShapeError, lambda v: st.sampled_from([v[None], np.float64(1.0)]
                                                   + [v.reshape(-1)] * (v.ndim > 1))),
}

# the kinds that a row's contract takes, or rejects with another error
TAKES = {"nan": None, "inf": None, "rank": None}       # the tape and AFTX1 hold any float64 array
NOT_LABELS = {"nan": LabelError, "inf": LabelError}    # NaN and infinity are not 0 or 1
LABELS = dict.fromkeys(MALFORMED, LabelError)          # softmax_cross_entropy's labels

# name -> (the shape of the valid array the boundary takes, None for a side
# of any length, or None for any rank; the errors the row names, by kind;
# the call given the malformed argument ``a``, the valid array ``v``, and a
# scratch directory ``d``)
BOUNDARIES = {
    "Tensor": (None, TAKES, lambda a, v, d: Tensor(a)),
    "write_wav": ((None,), {}, lambda a, v, d: write_wav(d / "x.wav", Waveform(a))),
    "log_mel": ((None,), {}, lambda a, v, d: log_mel(Waveform(a))),
    "save_container": (None, TAKES,
                       lambda a, v, d: save_container(d / "x.aftx", [("a", a, True)])),
    "entries_digest": (None, TAKES, lambda a, v, d: entries_digest([("a", a, True)])),
    "JudgeScores.validate_schema": ((None, None), {}, lambda a, v, d:
                                    JudgeScores(a, CONTINUOUS, "arousal").validate_schema()),
    "binarize_majority": ((None, None), {},
                          lambda a, v, d: binarize_majority(JudgeScores(a, FIVE_POINT, "EX"))),
    "summarize_continuous.times": ((None,), {},
                                   lambda a, v, d: summarize_continuous(a, v, 0.0, 2.0)),
    # every time inside the window, so every value is read
    "summarize_continuous.values": ((None,), {}, lambda a, v, d:
                                    summarize_continuous(np.zeros(len(v)), a, 0.0, 2.0)),
    "synthetic_judge_scores.planted": ((None,), {}, lambda a, v, d: synthetic_judge_scores(
        a, 11, FIVE_POINT, 0.0, np.random.default_rng(0), "EX", [str(i) for i in range(len(v))])),
    "pearson.x": ((None,), {}, lambda a, v, d: pearson(a, v)),
    "pearson.y": ((None,), {}, lambda a, v, d: pearson(v, a)),
    "phi.x": ((None,), NOT_LABELS, lambda a, v, d: phi(a, v)),
    "phi.y": ((None,), NOT_LABELS, lambda a, v, d: phi(v, a)),
    "ConfusionMatrix.counts": ((2, 2), {}, lambda a, v, d: ConfusionMatrix(a)),
    "from_predictions.y_true": ((None,), NOT_LABELS,
                                lambda a, v, d: ConfusionMatrix.from_predictions(a, v)),
    "from_predictions.y_pred": ((None,), NOT_LABELS,
                                lambda a, v, d: ConfusionMatrix.from_predictions(v, a)),
    "softmax_cross_entropy.logits": ((None, 2), {}, lambda a, v, d: softmax_cross_entropy(
        Tensor(a), np.zeros(len(v), dtype=np.int64))),
    "softmax_cross_entropy.labels": ((3,), LABELS, lambda a, v, d: softmax_cross_entropy(
        Tensor(np.zeros((3, 2))), a)),
    "augment_corpus": ((None, None), {}, lambda a, v, d: [s.values for s, _ in
                                                          augment_corpus([Spectrogram(a, "x")], 0)]),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("boundaries")


@st.composite
def valid_arrays(draw, shape, min_side):
    """A float array of ``shape`` (of rank 0-3 for None), each None side
    ``min_side``-4 long, with values 0 and 1: labels, scores, samples and
    times alike."""
    if shape is None:
        shape = (None,) * draw(st.integers(0, 3))
    shape = tuple(draw(st.integers(min_side, 4)) if side is None else side for side in shape)
    values = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("name", BOUNDARIES)
@settings(max_examples=5)     # for each (row, kind) pair: the file runs in about 2 s
@given(data=st.data())
def test_malformed_array_raises_the_rows_error(scratch, name, kind, data):
    shape, named, call = BOUNDARIES[name]
    error, malformed = MALFORMED[kind]
    error = named.get(kind, error)
    valid = data.draw(valid_arrays(shape, min_side=int(kind in ("nan", "inf"))), label="valid")
    bad = data.draw(malformed(valid), label="malformed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            call(bad, valid, scratch)
            return
        with pytest.raises(AftxError) as raised:
            call(bad, valid, scratch)
    assert raised.type is error, f"{name} raised {raised.type.__name__}, not {error.__name__}"


def _attention(heads):
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    return multi_head_attention(Tensor(np.ones((3, 4))), heads, *[eye, zero] * 4)


# (error, what the size or count argument is, the call): before the
# boundary checked its sizes, each call raised a bare TypeError or another
# named error, or took True as 1; and before ConfusionMatrix checked its
# counts, uar read a negative count (1.25 for [[3, -1], [0, 1]]) and a 3x3
# matrix
SIZES = [
    (ShapeError, "positional_encoding-float-dim", lambda: positional_encoding(3, 4.0)),
    (ShapeError, "positional_encoding-bool-frames", lambda: positional_encoding(True, 4)),
    (ShapeError, "positional_encoding-str-frames", lambda: positional_encoding("3", 4)),
    (ShapeError, "positional_encoding-bool-dim", lambda: positional_encoding(3, True)),
    (ShapeError, "conv1d-bool-stride",
     lambda: conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)),
                    stride=True)),
    (HeadMismatch, "multi_head_attention-bool-heads", lambda: _attention(True)),
    (ShapeError, "sample_mask_regions-float-rows", lambda: sample_mask_regions(100.5, "freq", 0)),
    (ShapeError, "sample_mask_regions-str-rows", lambda: sample_mask_regions("100", "freq", 0)),
    (ShapeError, "sample_mask_regions-bool-rows", lambda: sample_mask_regions(True, "freq", 0)),
    (ShapeError, "tmean-bool-axis", lambda: tmean(Tensor(np.zeros((2, 3))), True)),
    (ShapeError, "transpose-bool-axes", lambda: transpose(Tensor(np.zeros((2, 3))), (True, False))),
    (OutOfRange, "ConfusionMatrix-negative-count",
     lambda: ConfusionMatrix(np.array([[3, -1], [0, 1]]))),
    (OutOfRange, "ConfusionMatrix-fractional-count",
     lambda: ConfusionMatrix(np.array([[1.5, 0.0], [0.0, 1.0]]))),
    (ShapeError, "ConfusionMatrix-3x3-counts", lambda: ConfusionMatrix(np.eye(3))),
]

# (error, what the single number is, the call): before AdamW checked its
# rate, NaN made every trainable weight NaN at the first step, a negative
# rate moved the weights uphill, and the others raised a bare TypeError
# there; and before ``finite_number`` rejected bools, True was taken as
# 1.0: a rate of 1, the window [0, 1), and unit judge noise
RATES = [
    (NonFinite, "AdamW-nan-lr", lambda: AdamW({}, lr=float("nan"))),
    (NonFinite, "AdamW-inf-lr", lambda: AdamW({}, lr=float("inf"))),
    (OutOfRange, "AdamW-negative-lr", lambda: AdamW({}, lr=-1.0)),
    (NotReal, "AdamW-str-lr", lambda: AdamW({}, lr="0.1")),
    (NotReal, "AdamW-none-lr", lambda: AdamW({}, lr=None)),
    (ShapeError, "AdamW-list-lr", lambda: AdamW({}, lr=[0.1])),
    (NotReal, "AdamW-bool-lr", lambda: AdamW({}, lr=True)),
    (NotReal, "summarize_continuous-bool-window",
     lambda: summarize_continuous(np.arange(3.0), np.array([1.0, 2.0, 3.0]), False, True)),
    (NotReal, "synthetic_judge_scores-numpy-bool-noise", lambda: synthetic_judge_scores(
        np.array([0.0, 1.0]), 11, FIVE_POINT, np.True_, np.random.default_rng(0), "EX",
        ["a", "b"])),
]


@pytest.mark.parametrize("error, call", [(e, c) for e, _, c in SIZES + RATES],
                         ids=[name for _, name, _ in SIZES + RATES])
def test_size_or_rate_outside_its_contract_raises_named_error(error, call):
    with pytest.raises(error):
        call()


def test_numpy_integer_sizes_are_taken():
    assert positional_encoding(np.int64(3), np.int32(4)).shape == (3, 4)
    assert _attention(np.int64(2)).shape == (3, 4)
    assert sample_mask_regions(np.int64(80), "freq", 0) == sample_mask_regions(80, "freq", 0)
    assert tmean(Tensor(np.zeros((2, 3))), np.int64(-1)).shape == (2,)


SPEC = np.linspace(-1.0, 1.0, 80 * 100).reshape(80, 100)   # wide enough to mask
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
