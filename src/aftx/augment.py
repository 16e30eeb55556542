"""Frequency/time masking of spectrograms and corpus-level augmentation.

Masked cells are filled with the global mean of the input spectrogram,
which ``apply_mask`` computes on every call before masking.  Because the
fill is a constant, applying frequency-then-time and time-then-frequency
with the same seed produces the same set of masked cells: each axis draws
its rectangles from its own seed-derived substream, independent of
application order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio import Spectrogram
from .errors import MaskTooLarge, UnknownKind

FREQUENCY = "frequency"
TIME = "time"
FREQ_THEN_TIME = "freq_then_time"
TIME_THEN_FREQ = "time_then_freq"

MASK_KINDS = (FREQUENCY, TIME, FREQ_THEN_TIME, TIME_THEN_FREQ)
DEFAULT_PLAN = (FREQUENCY, TIME, FREQ_THEN_TIME)

_AXIS_STREAM = {"freq": 0, "time": 1}


@dataclass(frozen=True)
class MaskSpec:
    kind: str
    max_freq_width: int = 8      # mel bins
    max_time_width: int = 40     # frames
    num_masks_per_axis: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise UnknownKind(f"unknown mask kind {self.kind!r}; expected one of {MASK_KINDS}")


@dataclass(frozen=True)
class Provenance:
    source_id: str
    kind: str                    # "original" or a mask kind
    seed: int | None = None


def sample_mask_regions(num_rows: int, axis: str, max_width: int,
                        num_masks: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic [start, end) bands for one axis.

    Widths are uniform on [0, max_width]; positions keep the band inside the
    axis.  The generator is derived from (seed, axis) so composition order
    cannot change the draw.
    """
    rng = np.random.default_rng([seed, _AXIS_STREAM[axis]])
    regions = []
    for _ in range(num_masks):
        width = int(rng.integers(0, max_width + 1))
        start = int(rng.integers(0, num_rows - width + 1))
        regions.append((start, start + width))
    return regions


def apply_mask(s: Spectrogram, m: MaskSpec) -> Spectrogram:
    """Pure function: returns a masked copy, the input stays untouched."""
    mel_bins, frames = s.values.shape
    if m.max_freq_width >= mel_bins:
        raise MaskTooLarge(f"freq width {m.max_freq_width} >= {mel_bins} mel bins")
    if m.max_time_width >= frames:
        raise MaskTooLarge(f"time width {m.max_time_width} >= {frames} frames")

    fill = float(s.values.mean())
    out = s.values.copy()
    if m.kind in (FREQUENCY, FREQ_THEN_TIME, TIME_THEN_FREQ):
        for start, end in sample_mask_regions(mel_bins, "freq", m.max_freq_width,
                                              m.num_masks_per_axis, m.seed):
            out[start:end, :] = fill
    if m.kind in (TIME, FREQ_THEN_TIME, TIME_THEN_FREQ):
        for start, end in sample_mask_regions(frames, "time", m.max_time_width,
                                              m.num_masks_per_axis, m.seed):
            out[:, start:end] = fill
    return replace(s, values=out)


def augment_corpus(clips: list[Spectrogram], plan=DEFAULT_PLAN,
                   max_freq_width: int = 8, max_time_width: int = 40,
                   num_masks_per_axis: int = 1, seed: int = 0,
                   ) -> list[tuple[Spectrogram, Provenance]]:
    """Originals plus one masked variant per plan entry per clip.

    The default three-kind plan makes the output exactly four times the input
    size.  An empty plan returns the originals only.  Per-variant seeds are
    derived from (seed, clip index, kind index) so reruns are reproducible
    and recorded in the provenance tags.
    """
    plan = tuple(plan)
    for kind in plan:
        if kind not in MASK_KINDS:
            raise UnknownKind(f"unknown mask kind {kind!r} in plan")
    out: list[tuple[Spectrogram, Provenance]] = []
    for spec in clips:
        out.append((spec, Provenance(spec.source_id, "original")))
    for ci, spec in enumerate(clips):
        for ki, kind in enumerate(plan):
            variant_seed = int(np.random.default_rng([seed, ci, ki]).integers(0, 2**31 - 1))
            masked = apply_mask(spec, MaskSpec(
                kind=kind, max_freq_width=max_freq_width,
                max_time_width=max_time_width,
                num_masks_per_axis=num_masks_per_axis, seed=variant_seed))
            out.append((masked, Provenance(spec.source_id, kind, variant_seed)))
    return out
