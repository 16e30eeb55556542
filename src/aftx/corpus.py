"""Corpus schemas, majority-vote labeling, fold planning, and synthetic data.

Two corpus shapes are supported: a personality schema (five traits, eleven
judges, 1-5 scores) and an emotion schema (arousal/valence, six annotators,
continuous scores in [-1, 1]).  A clip is labeled positive for a trait when
at least a majority of judges scored it strictly above that judge's own
mean score for the trait across the whole corpus.

File formats:

- scores CSV:      ``clip_id,judge_id,trait,score``
- clip manifest:   ``clip_id,speaker_id,path,duration_s``
- fold plan:       JSON
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .audio import SAMPLE_RATE, Waveform
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

    @property
    def num_judges(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_clips(self) -> int:
        return self.matrix.shape[1]

    def validate_schema(self) -> None:
        """Enforce the corpus-schema invariants (judge count, score range)."""
        expected = PERSONALITY_JUDGES if self.trait in TRAITS else EMOTION_JUDGES
        if self.num_judges != expected:
            raise SchemaError(
                f"trait {self.trait!r} expects {expected} judges, got {self.num_judges}")
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
    path: str = ""
    duration_s: float = 0.0
    binary_labels: dict[str, int] = field(default_factory=dict)


@dataclass
class FoldPlan:
    num_folds: int
    assignments: dict[str, int]     # clip_id -> fold index
    stratify_by: str
    speaker_disjoint: bool = False

    def fold_clips(self, fold: int) -> list[str]:
        return sorted(cid for cid, f in self.assignments.items() if f == fold)

    def to_json(self) -> str:
        return json.dumps({
            "num_folds": self.num_folds,
            "stratify_by": self.stratify_by,
            "speaker_disjoint": self.speaker_disjoint,
            "assignments": self.assignments,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FoldPlan":
        raw = json.loads(text)
        return cls(num_folds=raw["num_folds"],
                   assignments={k: int(v) for k, v in raw["assignments"].items()},
                   stratify_by=raw["stratify_by"],
                   speaker_disjoint=raw["speaker_disjoint"])


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


def segment_recording(w: Waveform, clip_seconds: float = 10.0) -> list[Waveform]:
    """Cut a recording into consecutive non-overlapping clips; the trailing
    remainder shorter than one clip is discarded."""
    clip_len = int(round(clip_seconds * w.sample_rate))
    if len(w.samples) < clip_len:
        raise InputTooShort(
            f"recording of {len(w.samples)} samples is shorter than one "
            f"{clip_len}-sample clip")
    count = len(w.samples) // clip_len
    return [
        Waveform(samples=w.samples[i * clip_len:(i + 1) * clip_len].copy(),
                 sample_rate=w.sample_rate,
                 source_id=f"{w.source_id}_{i:03d}")
        for i in range(count)
    ]


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


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    num_clips: int = 64
    num_judges: int = PERSONALITY_JUDGES
    scale: str = FIVE_POINT
    trait: str = "EX"
    label_signal: str = "amplitude"     # amplitude | pitch | none
    score_noise: float = 0.0
    clip_samples: int = 1024
    sample_rate: int = SAMPLE_RATE
    positive_fraction: float = 0.5
    seed: int = 0


@dataclass
class SyntheticCorpus:
    waveforms: list[Waveform]
    scores: JudgeScores
    planted: np.ndarray                 # latent binary labels


def _synthesize_clip(rng: np.random.Generator, label: int, signal: str,
                     num_samples: int, sample_rate: int) -> np.ndarray:
    # positive clips are louder (amplitude mode) or higher pitched (pitch mode)
    if signal == "amplitude":
        rms = 0.40 if label else 0.06
        f0 = 220.0
    elif signal == "pitch":
        rms = 0.20
        f0 = 440.0 if label else 110.0
    elif signal == "none":
        rms = 0.20
        f0 = 220.0
    else:
        raise UnknownKind(f"unknown label signal {signal!r}")
    f0 *= 1.0 + 0.02 * rng.standard_normal()
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(num_samples) / sample_rate
    x = math.sqrt(2.0) * rms * np.sin(2.0 * math.pi * f0 * t + phase)
    x += 0.01 * rng.standard_normal(num_samples)
    return np.clip(x, -1.0, 1.0)


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


def generate_synthetic_corpus(spec: SyntheticSpec) -> SyntheticCorpus:
    """Clips whose loudness or pitch encodes a planted binary label, plus
    judge scores derived from the same label.  ``label_signal="none"`` keeps
    the scores but removes the acoustic correlate."""
    rng = np.random.default_rng(spec.seed)
    n_pos = int(round(spec.num_clips * spec.positive_fraction))
    planted = np.zeros(spec.num_clips, dtype=np.int8)
    planted[:n_pos] = 1
    planted = planted[rng.permutation(spec.num_clips)]
    if len(np.unique(planted)) < 2:
        raise DegenerateLabels("synthetic corpus needs both classes; adjust positive_fraction")

    clip_ids = [f"clip{idx:04d}" for idx in range(spec.num_clips)]
    waveforms = []
    for idx in range(spec.num_clips):
        wave_label = int(planted[idx]) if spec.label_signal != "none" else 0
        x = _synthesize_clip(rng, wave_label, spec.label_signal,
                             spec.clip_samples, spec.sample_rate)
        waveforms.append(Waveform(samples=x, sample_rate=spec.sample_rate,
                                  source_id=clip_ids[idx]))
    scores = synthetic_judge_scores(planted, spec.num_judges, spec.scale,
                                    spec.score_noise, rng, spec.trait, clip_ids)
    return SyntheticCorpus(waveforms=waveforms, scores=scores, planted=planted)


# ---------------------------------------------------------------------------
# CSV / JSON plumbing
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


def read_scores_csv(path) -> dict[str, JudgeScores]:
    """Group rows into one [judges, clips] matrix per trait.  Judge and clip
    orders are sorted for determinism.  Raises FormatError unless every
    (judge, clip) cell of a trait is present exactly once with a finite
    score."""
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


def write_manifest_csv(path, clips: list[AnnotatedClip]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "speaker_id", "path", "duration_s"])
        for clip in clips:
            writer.writerow([clip.clip_id, clip.speaker_id, clip.path,
                             repr(float(clip.duration_s))])


def read_manifest_csv(path) -> list[AnnotatedClip]:
    clips = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            clips.append(AnnotatedClip(
                clip_id=row["clip_id"], speaker_id=row["speaker_id"],
                path=row["path"], duration_s=float(row["duration_s"])))
    return clips
