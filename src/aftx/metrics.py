"""Evaluation math: confusion matrices, UAR, phi and Pearson correlations,
and the ten-pair trait correlation table.

Reported correlation values are absolute; undefined correlations propagate
as None in assembled tables, never as silent zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import LabelError, ShapeError, UndefinedCorrelation, UndefinedRecall, finite, real_array
from .corpus import TRAITS


@dataclass
class ConfusionMatrix:
    """2x2 counts; rows are true class, columns predicted."""

    counts: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionMatrix":
        """Count 1-d label vectors; every label must be 0 or 1."""
        y_true = real_array(y_true, "y_true", ndim=1)
        y_pred = real_array(y_pred, "y_pred", ndim=1)
        if y_true.shape != y_pred.shape:
            raise ShapeError(f"y_true {y_true.shape} and y_pred {y_pred.shape} differ in length")
        for name, y in (("y_true", y_true), ("y_pred", y_pred)):
            if not np.isin(y, (0, 1)).all():
                raise LabelError(f"{name} holds labels other than 0 and 1")
        cells = 2 * y_true.astype(np.int64) + y_pred.astype(np.int64)
        return cls(counts=np.bincount(cells, minlength=4).reshape(2, 2))


def uar(cm: ConfusionMatrix) -> float:
    """Unweighted average recall: the mean of per-class recalls."""
    counts = np.asarray(cm.counts, dtype=np.float64)
    row_sums = counts.sum(axis=1)
    if (row_sums == 0).any():
        raise UndefinedRecall("a true class has no samples")
    recalls = np.diag(counts) / row_sums
    return float(recalls.mean())


def phi(x, y) -> float:
    """Phi coefficient of two binary vectors via their 2x2 contingency table,
    ``ConfusionMatrix.from_predictions(x, y)``, which checks that they are
    1-d vectors of one length (ShapeError) of 0/1 labels (LabelError)."""
    (n00, n01), (n10, n11) = ConfusionMatrix.from_predictions(x, y).counts.tolist()
    n1_, n0_ = n11 + n10, n01 + n00
    n_1, n_0 = n11 + n01, n10 + n00
    denom = float(n1_) * n0_ * n_1 * n_0
    if denom == 0.0:
        raise UndefinedCorrelation("phi undefined: a vector is constant")
    return float((n11 * n00 - n10 * n01) / np.sqrt(denom))


def _unit_centred(v: np.ndarray) -> np.ndarray:
    """``v`` minus its mean, divided by its largest magnitude before and after
    centring (a vector of zeros stays zeros), so no sum over it can overflow
    or underflow."""
    v = v / max(np.abs(v).max(), np.finfo(np.float64).smallest_subnormal)
    v = v - v.mean()
    return v / max(np.abs(v).max(), np.finfo(np.float64).smallest_subnormal)


def pearson(x, y) -> float:
    """Sample Pearson correlation of two vectors of any magnitude: 1-D and of
    one length (ShapeError), real (NotReal) and finite (NonFinite)."""
    x = finite(real_array(x, "pearson x", ndim=1), "pearson x").astype(np.float64, copy=False)
    y = finite(real_array(y, "pearson y", ndim=1), "pearson y").astype(np.float64, copy=False)
    if x.shape != y.shape:
        raise ShapeError("pearson needs two equal-length vectors")
    if len(x) < 2:
        raise UndefinedCorrelation("pearson needs at least two samples")
    xc, yc = _unit_centred(x), _unit_centred(y)
    vx, vy = float(xc @ xc), float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelation("pearson undefined: zero variance")
    return float((xc @ yc) / np.sqrt(vx * vy))


@dataclass
class CorrelationEntry:
    trait_pair: tuple[str, str]
    phi_2scale: float | None        # |phi| on binary labels
    pearson_5scale: float | None    # |pearson| on per-clip mean judge scores


def trait_pair_table(scores_5scale: dict[str, np.ndarray],
                     labels_2scale: dict[str, np.ndarray]) -> list[CorrelationEntry]:
    """All C(5,2)=10 unordered pairs of ``TRAITS`` with absolute-valued correlations.

    ``scores_5scale[trait]`` is the per-clip mean judge score and
    ``labels_2scale[trait]`` the binary labels of the same clips: a trait
    whose two differ in length raises ShapeError.  Undefined correlations
    become None.
    """
    missing = [t for t in TRAITS if t not in scores_5scale or t not in labels_2scale]
    if missing:
        raise LabelError(f"missing traits: {missing}")
    for t in TRAITS:
        if len(scores_5scale[t]) != len(labels_2scale[t]):
            raise ShapeError(f"trait {t!r}: {len(scores_5scale[t])} clip scores but "
                             f"{len(labels_2scale[t])} labels")
    entries = []
    for a, b in combinations(TRAITS, 2):
        try:
            p2 = abs(phi(labels_2scale[a], labels_2scale[b]))
        except UndefinedCorrelation:
            p2 = None
        try:
            p5 = abs(pearson(scores_5scale[a], scores_5scale[b]))
        except UndefinedCorrelation:
            p5 = None
        entries.append(CorrelationEntry(trait_pair=(a, b), phi_2scale=p2, pearson_5scale=p5))
    return entries
