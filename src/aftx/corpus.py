"""Corpus schemas, majority-vote labeling, fold planning, and synthetic judge
scores.

Two corpus shapes are supported: a personality schema (five traits, eleven
judges, 1-5 scores) and an emotion schema (arousal/valence, six annotators,
continuous scores in [-1, 1]).  A clip is labeled positive for a trait when
a strict majority of judges (6 of 11, 4 of 6) scored it strictly above
that judge's own mean score for the trait across the whole corpus.  Folds
are always ``NUM_FOLDS`` = 5.

Scores are stored as a CSV of ``clip_id,judge_id,trait,score`` rows.  The
reader finds its columns by header name, in any order, ignores other columns
and skips blank lines.  It raises FormatError for an empty file, a header
that lacks a column, a file with no rows, a row too short to hold every
column, a score that does not parse, a trait outside ``TRAITS`` and
``DIMENSIONS``, a repeated or missing (judge, clip) cell and a non-finite
score.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLabels,
    FormatError,
    InputTooShort,
    LabelError,
    MissingAnnotation,
    SchemaError,
    ShapeError,
    UnknownKind,
    checked_seed,
    finite,
    is_whole,
    real_array,
)

TRAITS = ("EX", "AG", "CO", "NE", "OP")
DIMENSIONS = ("arousal", "valence")

FIVE_POINT = "five_point"
CONTINUOUS = "continuous"

PERSONALITY_JUDGES = 11
EMOTION_JUDGES = 6

NUM_FOLDS = 5


@dataclass
class JudgeScores:
    """Per-judge scores for one trait: matrix [num_judges, num_clips]."""

    matrix: np.ndarray
    scale: str                      # FIVE_POINT or CONTINUOUS
    trait: str
    clip_ids: list[str] = field(default_factory=list)
    judge_ids: list[str] = field(default_factory=list)

    def validate_schema(self) -> None:
        """Enforce the corpus-schema invariants: a real [judges, clips] matrix
        (ShapeError, NotReal) of finite scores (NonFinite), with a judge and
        a clip, the judge count and the score range (SchemaError)."""
        m = _score_matrix(self)
        expected = PERSONALITY_JUDGES if self.trait in TRAITS else EMOTION_JUDGES
        if m.shape[0] != expected:
            raise SchemaError(f"trait {self.trait!r} expects {expected} judges, got {m.shape[0]}")
        if self.scale == FIVE_POINT:
            if not np.isin(m, [1, 2, 3, 4, 5]).all():
                raise SchemaError("five-point scores must lie in {1,...,5}")
        elif self.scale == CONTINUOUS:
            if m.min() < -1.0 or m.max() > 1.0:
                raise SchemaError("continuous scores must lie in [-1, 1]")
        else:
            raise UnknownKind(f"unknown scale {self.scale!r}")


def _score_matrix(scores: JudgeScores, label: str | None = None) -> np.ndarray:
    """The scores' matrix, if it is a real [judges, clips] array (ShapeError,
    NotReal) of finite scores (NonFinite) with a judge and a clip
    (SchemaError).  ``label`` names the scores in error messages, by
    default as their trait."""
    what = f"{label or f'trait {scores.trait!r}'} scores [judges, clips]"
    m = finite(real_array(scores.matrix, what, ndim=2), what)
    if 0 in m.shape:
        raise SchemaError(f"{what} of shape {m.shape} have no judges or no clips")
    return m


@dataclass
class AnnotatedClip:
    clip_id: str
    speaker_id: str
    binary_labels: dict[str, int] = field(default_factory=dict)


@dataclass
class FoldPlan:
    assignments: dict[str, int]     # clip_id -> fold index


def binarize_majority(scores: JudgeScores) -> np.ndarray:
    """Label each clip 1 when a strict majority of judges scored it strictly
    above their own corpus-wide mean for this trait; ties count as not-above.
    A matrix that is ragged or not [judges, clips] raises ShapeError, not
    real NotReal, empty SchemaError, and a NaN or infinite score NonFinite.
    """
    m = _score_matrix(scores)
    reference = m.mean(axis=1, keepdims=True)   # one mean per judge
    votes = (m > reference).sum(axis=0)
    return (votes >= m.shape[0] // 2 + 1).astype(np.int8)


def summarize_continuous(times: np.ndarray, values: np.ndarray,
                         start_s: float, end_s: float) -> float:
    """Mean of one annotator's trace over the clip window [start_s, end_s).

    ``times`` and ``values`` must be 1-D arrays of equal length
    (ShapeError) of real numbers (NotReal), every time finite and every
    value in the window finite (NonFinite)."""
    times = real_array(times, "annotation times", ndim=1).astype(np.float64, copy=False)
    values = real_array(values, "annotation values", ndim=1)
    if times.shape != values.shape:
        raise ShapeError(f"times {times.shape} and values {values.shape} differ in length")
    finite(times, "annotation times")
    inside = (times >= start_s) & (times < end_s)
    if not inside.any():
        raise MissingAnnotation(
            f"no annotation samples in window [{start_s}, {end_s})")
    window = finite(values[inside].astype(np.float64, copy=False),
                    f"annotation values in window [{start_s}, {end_s})")
    return float(window.mean())


def make_folds(clips: list[AnnotatedClip], trait: str, seed: int,
               speaker_disjoint: bool = False) -> FoldPlan:
    """Stratified assignment to ``NUM_FOLDS`` folds, deterministic for a seed.

    Clip-level mode deals each class out cyclically after a seeded shuffle,
    which keeps fold sizes within one clip of each other and per-fold label
    fractions close to the global fraction.  Speaker-disjoint mode instead
    assigns whole speakers to the currently smallest fold, so the size
    invariant holds only as far as speaker clip counts allow.  Fewer than
    ``NUM_FOLDS`` clips, or in that mode speakers, raise InputTooShort.  A
    clip id that appears twice, or a clip whose label for ``trait`` is
    missing or other than 0 or 1, raises LabelError, and a seed other than a
    non-negative whole number InvalidSeed.
    """
    checked_seed(seed)
    if len(clips) < NUM_FOLDS:
        raise InputTooShort(f"need at least {NUM_FOLDS} clips, got {len(clips)}")
    labels = {}
    for clip in clips:
        if clip.clip_id in labels:
            raise LabelError(f"clip id {clip.clip_id!r} appears twice")
        if trait not in clip.binary_labels:
            raise LabelError(f"clip {clip.clip_id!r} has no label for {trait!r}")
        label = clip.binary_labels[trait]
        if label not in (0, 1):
            raise LabelError(f"clip {clip.clip_id!r} has label {label!r} for {trait!r}, not 0/1")
        labels[clip.clip_id] = int(label)
    if len(set(labels.values())) < 2:
        raise DegenerateLabels(f"trait {trait!r} has only one class")

    rng = np.random.default_rng(seed)
    assignments: dict[str, int] = {}
    if speaker_disjoint:
        by_speaker: dict[str, list[str]] = {}
        for clip in clips:
            by_speaker.setdefault(clip.speaker_id, []).append(clip.clip_id)
        if len(by_speaker) < NUM_FOLDS:
            raise InputTooShort(f"need at least {NUM_FOLDS} speakers, got {len(by_speaker)}")
        base = sorted(by_speaker)
        shuffled = [base[i] for i in rng.permutation(len(base))]
        # largest speakers first (seeded order among equals), each into the
        # currently smallest fold
        shuffled.sort(key=lambda s: -len(by_speaker[s]))
        sizes = [0] * NUM_FOLDS
        for speaker in shuffled:
            fold = int(np.argmin(sizes))
            for cid in by_speaker[speaker]:
                assignments[cid] = fold
            sizes[fold] += len(by_speaker[speaker])
    else:
        next_fold = 0
        for cls in (1, 0):
            ids = sorted(cid for cid, lab in labels.items() if lab == cls)
            ids = [ids[i] for i in rng.permutation(len(ids))]
            for cid in ids:
                assignments[cid] = next_fold % NUM_FOLDS
                next_fold += 1
    return FoldPlan(assignments=assignments)


def synthetic_judge_scores(planted: np.ndarray, num_judges: int, scale: str,
                           noise: float, rng: np.random.Generator,
                           trait: str, clip_ids: list[str]) -> JudgeScores:
    """Judge scores = planted label + a fixed per-judge bias + noise.

    With zero noise every judge scores positives strictly above negatives, so
    majority binarization recovers the planted labels exactly.  A judge
    count that is not a positive whole number raises ShapeError.
    """
    if not is_whole(num_judges) or num_judges < 1:
        raise ShapeError(f"num_judges must be a positive whole number, got {num_judges!r}")
    n = len(planted)
    if scale == FIVE_POINT:
        bias = rng.integers(-1, 2, size=num_judges).astype(np.float64)
        base = np.where(planted > 0, 4.0, 2.0)
        raw = base[None, :] + bias[:, None]
        raw = raw + noise * rng.standard_normal((num_judges, n))
        matrix = np.clip(np.rint(raw), 1, 5)
    elif scale == CONTINUOUS:
        bias = rng.uniform(-0.15, 0.15, size=num_judges)
        base = np.where(planted > 0, 0.4, -0.4)
        raw = base[None, :] + bias[:, None]
        raw = raw + noise * rng.standard_normal((num_judges, n))
        matrix = np.clip(raw, -1.0, 1.0)
    else:
        raise UnknownKind(f"unknown scale {scale!r}")
    return JudgeScores(matrix=matrix, scale=scale, trait=trait,
                       clip_ids=list(clip_ids),
                       judge_ids=[f"j{j:02d}" for j in range(num_judges)])


# ---------------------------------------------------------------------------
# scores CSV
# ---------------------------------------------------------------------------

def write_scores_csv(path, scores_by_trait: dict[str, JudgeScores]) -> None:
    """One ``clip_id,judge_id,trait,score`` row per score, the traits in
    sorted order.  Before the file is opened, no trait at all or a trait
    outside ``TRAITS`` and ``DIMENSIONS`` raises FormatError, a matrix that is not a real [judges,
    clips] array ShapeError or NotReal, one with no judge or no clip
    SchemaError, one whose shape is not the count of judge ids by the count
    of clip ids ShapeError, a repeated judge or clip id FormatError, and a
    non-finite score NonFinite: each is a table that ``read_scores_csv``
    would reject or read otherwise."""
    if not scores_by_trait:
        raise FormatError(f"{path}: no traits to write")
    tables = []
    for trait in sorted(scores_by_trait):
        if trait not in TRAITS + DIMENSIONS:
            raise FormatError(f"{path}: unknown trait {trait!r}; "
                              f"expected one of {TRAITS + DIMENSIONS}")
        sc = scores_by_trait[trait]
        label = f"{path}: trait {trait!r}"
        m = _score_matrix(sc, label)
        if m.shape != (len(sc.judge_ids), len(sc.clip_ids)):
            raise ShapeError(f"{label} scores of shape {m.shape} for {len(sc.judge_ids)} judge ids "
                             f"and {len(sc.clip_ids)} clip ids")
        for kind, ids in (("judge", sc.judge_ids), ("clip", sc.clip_ids)):
            repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
            if repeated:
                raise FormatError(f"{path}: trait {trait!r} repeats {kind} ids {repeated}")
        tables.append((trait, sc, m))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "judge_id", "trait", "score"])
        for trait, sc, m in tables:
            for j, judge in enumerate(sc.judge_ids):
                for c, cid in enumerate(sc.clip_ids):
                    writer.writerow([cid, judge, trait, repr(float(m[j, c]))])


# one record per scores-CSV row: codes into the trait, judge and clip id
# dicts, the score, and the row's file line for error messages
_SCORE_ROW = np.dtype([("trait", np.intp), ("judge", np.intp), ("clip", np.intp),
                       ("score", np.float64), ("line", np.int64)])


def _column_indices(reader, path, columns: tuple[str, ...]) -> list[int]:
    """Read the header row and return the position of each named column."""
    header = next(reader, None)
    if header is None:
        raise FormatError(f"{path}: empty file, expected a header with {list(columns)}")
    position = {name: i for i, name in enumerate(header)}
    missing = [name for name in columns if name not in position]
    if missing:
        raise FormatError(f"{path}: header {header} lacks {missing}")
    repeated = [name for name in columns if header.count(name) > 1]
    if repeated:
        raise FormatError(f"{path}: header {header} names {repeated} more than once")
    return [position[name] for name in columns]


def _ranks(codes: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The ids in sorted order, and each code's position in that order."""
    ids = sorted(codes)
    rank = np.empty(len(ids), dtype=np.intp)
    rank[[codes[i] for i in ids]] = np.arange(len(ids))
    return ids, rank


def read_scores_csv(path) -> dict[str, JudgeScores]:
    """Group rows into one [judges, clips] matrix per trait.

    Columns are found by header name, in any order; other columns are
    ignored and blank lines are skipped.  Judge and clip orders are sorted
    for determinism; traits keep their order of first appearance.  The file
    is read once, into one record per row; no row is kept as Python objects.

    Raises FormatError for an empty file, a header that lacks one of
    ``clip_id``, ``judge_id``, ``trait`` or ``score`` or names one twice
    (naming it), a file with no score
    rows, a row too short to hold every column or with a non-numeric score
    (naming its line), a trait outside ``TRAITS`` and ``DIMENSIONS`` (naming
    the line of its first row), a second score for a cell (naming the line of
    the first repeat in the file), a (judge, clip) cell of a trait with no score,
    and a non-finite score.
    """
    traits: dict[str, int] = {}
    judges: dict[str, int] = {}
    clips: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        ci, ji, ti, si = _column_indices(reader, path, ("clip_id", "judge_id", "trait", "score"))

        def record(row):
            try:
                return (traits.setdefault(row[ti], len(traits)),
                        judges.setdefault(row[ji], len(judges)),
                        clips.setdefault(row[ci], len(clips)),
                        float(row[si]), reader.line_num)
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{path}:{reader.line_num}: bad scores row") from exc

        rows = np.fromiter((record(row) for row in reader if row), dtype=_SCORE_ROW)
    if not len(rows):
        raise FormatError(f"{path}: no score rows")
    for trait, t in traits.items():
        if trait not in TRAITS + DIMENSIONS:
            line = rows["line"][np.argmax(rows["trait"] == t)]
            raise FormatError(f"{path}:{line}: unknown trait {trait!r}; "
                              f"expected one of {TRAITS + DIMENSIONS}")
    judge_ids, judge_rank = _ranks(judges)
    clip_ids, clip_rank = _ranks(clips)

    # Per trait: its judges and clips, then each row's cell in the
    # [judges, clips] matrix.  The sorted distinct cells find repeats and
    # gaps in O(rows) memory, where counting into every cell would allocate
    # the whole grid of a sparse malformed table.
    grids = []
    repeats = []
    for t in range(len(traits)):
        at = np.flatnonzero(rows["trait"] == t)
        jt, jinv = np.unique(judge_rank[rows["judge"][at]], return_inverse=True)
        ct, cinv = np.unique(clip_rank[rows["clip"][at]], return_inverse=True)
        cell = jinv * len(ct) + cinv
        filled, first = np.unique(cell, return_index=True)
        if len(filled) < len(cell):
            repeat = np.ones(len(cell), dtype=bool)
            repeat[first] = False
            repeats.append(at[repeat][0])
        grids.append((at, jt, ct, cell, filled))
    if repeats:
        r = rows[min(repeats)]
        key = (list(judges)[r["judge"]], list(clips)[r["clip"]])
        raise FormatError(
            f"{path}:{r['line']}: second score for {key} on {list(traits)[r['trait']]}")

    out: dict[str, JudgeScores] = {}
    for trait, (at, jt, ct, cell, filled) in zip(traits, grids):
        judges_t = [judge_ids[r] for r in jt]
        clips_t = [clip_ids[r] for r in ct]
        if len(filled) < len(jt) * len(ct):
            gaps = np.flatnonzero(filled != np.arange(len(filled)))
            ji, ci = divmod(int(gaps[0]) if len(gaps) else len(filled), len(ct))
            raise FormatError(f"{path}: no score for ({judges_t[ji]}, {clips_t[ci]}) on {trait}")
        matrix = np.empty((len(jt), len(ct)))
        matrix.reshape(-1)[cell] = rows["score"][at]
        if not np.isfinite(matrix).all():
            ji, ci = np.argwhere(~np.isfinite(matrix))[0]
            raise FormatError(
                f"{path}: non-finite score for ({judges_t[ji]}, {clips_t[ci]}) on {trait}")
        scale = FIVE_POINT if trait in TRAITS else CONTINUOUS
        out[trait] = JudgeScores(matrix=matrix, scale=scale, trait=trait,
                                 clip_ids=clips_t, judge_ids=judges_t)
    return out

