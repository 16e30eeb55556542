"""Corpus schemas, majority-vote labeling, fold planning, and synthetic judge
scores.

Two corpus shapes are supported: a personality schema (five traits, eleven
judges, 1-5 scores) and an emotion schema (arousal/valence, six annotators,
continuous scores in [-1, 1]).  A clip is labeled positive for a trait when
at least a majority of judges scored it strictly above that judge's own
mean score for the trait across the whole corpus.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLabels,
    FormatError,
    InputTooShort,
    InvalidMajority,
    LabelError,
    MissingAnnotation,
    SchemaError,
    UnknownKind,
)

TRAITS = ("EX", "AG", "CO", "NE", "OP")
DIMENSIONS = ("arousal", "valence")

FIVE_POINT = "five_point"
CONTINUOUS = "continuous"

PERSONALITY_JUDGES = 11
EMOTION_JUDGES = 6


@dataclass
class JudgeScores:
    """Per-judge scores for one trait: matrix [num_judges, num_clips]."""

    matrix: np.ndarray
    scale: str                      # FIVE_POINT or CONTINUOUS
    trait: str
    clip_ids: list[str] = field(default_factory=list)
    judge_ids: list[str] = field(default_factory=list)

    def validate_schema(self) -> None:
        """Enforce the corpus-schema invariants (judge count, score range)."""
        expected = PERSONALITY_JUDGES if self.trait in TRAITS else EMOTION_JUDGES
        judges = self.matrix.shape[0]
        if judges != expected:
            raise SchemaError(f"trait {self.trait!r} expects {expected} judges, got {judges}")
        if self.scale == FIVE_POINT:
            if not np.isin(self.matrix, [1, 2, 3, 4, 5]).all():
                raise SchemaError("five-point scores must lie in {1,...,5}")
        elif self.scale == CONTINUOUS:
            if self.matrix.min() < -1.0 or self.matrix.max() > 1.0:
                raise SchemaError("continuous scores must lie in [-1, 1]")
        else:
            raise UnknownKind(f"unknown scale {self.scale!r}")


@dataclass
class AnnotatedClip:
    clip_id: str
    speaker_id: str
    binary_labels: dict[str, int] = field(default_factory=dict)


@dataclass
class FoldPlan:
    num_folds: int
    assignments: dict[str, int]     # clip_id -> fold index
    stratify_by: str
    speaker_disjoint: bool = False


def default_majority(num_judges: int) -> int:
    """Smallest strict majority: 6 of 11, 4 of 6."""
    return num_judges // 2 + 1


def binarize_majority(scores: JudgeScores, majority: int | None = None) -> np.ndarray:
    """Label each clip 1 when at least ``majority`` judges scored it strictly
    above their own corpus-wide mean for this trait; ties count as not-above.
    """
    m = scores.matrix
    if majority is None:
        majority = default_majority(m.shape[0])
    if not 1 <= majority <= m.shape[0]:
        raise InvalidMajority(f"majority {majority} is outside 1..{m.shape[0]} judges")
    reference = m.mean(axis=1, keepdims=True)   # one mean per judge
    votes = (m > reference).sum(axis=0)
    return (votes >= majority).astype(np.int8)


def summarize_continuous(times: np.ndarray, values: np.ndarray,
                         start_s: float, end_s: float) -> float:
    """Mean of one annotator's trace over the clip window [start_s, end_s)."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    inside = (times >= start_s) & (times < end_s)
    if not inside.any():
        raise MissingAnnotation(
            f"no annotation samples in window [{start_s}, {end_s})")
    return float(values[inside].mean())


def make_folds(clips: list[AnnotatedClip], trait: str, seed: int,
               num_folds: int = 5, speaker_disjoint: bool = False) -> FoldPlan:
    """Stratified fold assignment, deterministic for a seed.

    Clip-level mode deals each class out cyclically after a seeded shuffle,
    which keeps fold sizes within one clip of each other and per-fold label
    fractions close to the global fraction.  Speaker-disjoint mode instead
    assigns whole speakers to the currently smallest fold, so the size
    invariant holds only as far as speaker clip counts allow.
    """
    if num_folds < 2:
        raise InputTooShort(f"need at least 2 folds to hold one out, got {num_folds}")
    if len(clips) < num_folds:
        raise InputTooShort(f"need at least {num_folds} clips, got {len(clips)}")
    labels = {}
    for clip in clips:
        if trait not in clip.binary_labels:
            raise LabelError(f"clip {clip.clip_id!r} has no label for {trait!r}")
        labels[clip.clip_id] = int(clip.binary_labels[trait])
    if len(set(labels.values())) < 2:
        raise DegenerateLabels(f"trait {trait!r} has only one class")

    rng = np.random.default_rng(seed)
    assignments: dict[str, int] = {}
    if speaker_disjoint:
        by_speaker: dict[str, list[str]] = {}
        for clip in clips:
            by_speaker.setdefault(clip.speaker_id, []).append(clip.clip_id)
        base = sorted(by_speaker)
        shuffled = [base[i] for i in rng.permutation(len(base))]
        # largest speakers first (seeded order among equals), each into the
        # currently smallest fold
        shuffled.sort(key=lambda s: -len(by_speaker[s]))
        sizes = [0] * num_folds
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
                assignments[cid] = next_fold % num_folds
                next_fold += 1
    return FoldPlan(num_folds=num_folds, assignments=assignments,
                    stratify_by=trait, speaker_disjoint=speaker_disjoint)


def synthetic_judge_scores(planted: np.ndarray, num_judges: int, scale: str,
                           noise: float, rng: np.random.Generator,
                           trait: str, clip_ids: list[str]) -> JudgeScores:
    """Judge scores = planted label + a fixed per-judge bias + noise.

    With zero noise every judge scores positives strictly above negatives, so
    majority binarization recovers the planted labels exactly.
    """
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "judge_id", "trait", "score"])
        for trait in sorted(scores_by_trait):
            sc = scores_by_trait[trait]
            for j, judge in enumerate(sc.judge_ids):
                for c, cid in enumerate(sc.clip_ids):
                    writer.writerow([cid, judge, trait, repr(float(sc.matrix[j, c]))])


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

