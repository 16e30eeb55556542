"""Frequency/time masking of spectrograms and corpus-level augmentation.

Masked cells are filled with the global mean of the input spectrogram.
``apply_mask`` computes it on every call; ``augment_corpus`` computes it
once per clip and shares it across that clip's variants.  The composite
kind ``FREQ_THEN_TIME`` masks both axes.  Each axis draws its bands from its
own seed-derived substream and every band gets the same constant fill, so
the order in which the axes are masked does not change the result, and one
composite kind covers both orders.

``augment_corpus`` keeps each variant as its recipe (source, mask, fill),
not as a copy: the mask is applied each time the variant's ``values`` is
read, so memory stays that of the originals however many variants a plan
makes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio import Spectrogram
from .errors import MaskTooLarge, UnknownKind

FREQUENCY = "frequency"
TIME = "time"
FREQ_THEN_TIME = "freq_then_time"

MASK_KINDS = (FREQUENCY, TIME, FREQ_THEN_TIME)
DEFAULT_PLAN = MASK_KINDS

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


def _check_widths(shape: tuple[int, ...], max_freq_width: int, max_time_width: int) -> None:
    mel_bins, frames = shape
    if max_freq_width >= mel_bins:
        raise MaskTooLarge(f"freq width {max_freq_width} >= {mel_bins} mel bins")
    if max_time_width >= frames:
        raise MaskTooLarge(f"time width {max_time_width} >= {frames} frames")


def _masked(values: np.ndarray, m: MaskSpec, fill: float) -> np.ndarray:
    """A fresh C-contiguous copy of ``values`` with the bands of ``m`` set to ``fill``."""
    mel_bins, frames = values.shape
    out = values.copy()
    if m.kind in (FREQUENCY, FREQ_THEN_TIME):
        for start, end in sample_mask_regions(mel_bins, "freq", m.max_freq_width,
                                              m.num_masks_per_axis, m.seed):
            out[start:end, :] = fill
    if m.kind in (TIME, FREQ_THEN_TIME):
        for start, end in sample_mask_regions(frames, "time", m.max_time_width,
                                              m.num_masks_per_axis, m.seed):
            out[:, start:end] = fill
    return out


def apply_mask(s: Spectrogram, m: MaskSpec) -> Spectrogram:
    """Pure function: returns a masked copy, the input stays untouched."""
    _check_widths(s.values.shape, m.max_freq_width, m.max_time_width)
    return replace(s, values=_masked(s.values, m, float(s.values.mean())))


@dataclass(frozen=True)
class MaskedSpectrogram:
    """A masked variant kept as its recipe; each ``values`` read masks a fresh copy."""

    source: Spectrogram
    mask: MaskSpec
    fill: float

    @property
    def values(self) -> np.ndarray:
        return _masked(self.source.values, self.mask, self.fill)


def augment_corpus(clips: list[Spectrogram], plan=DEFAULT_PLAN,
                   max_freq_width: int = 8, max_time_width: int = 40,
                   num_masks_per_axis: int = 1, seed: int = 0,
                   ) -> list[tuple[Spectrogram | MaskedSpectrogram, Provenance]]:
    """Originals plus one masked variant per plan entry per clip.

    The default three-kind plan makes the output exactly four times the input
    size.  An empty plan returns the originals only.  Per-variant seeds are
    derived from (seed, clip index, kind index) so reruns are reproducible
    and recorded in the provenance tags.  Variants are masked when read;
    an unknown kind or a mask too wide for a clip raises here, at call time.
    """
    plan = tuple(plan)
    for kind in plan:
        if kind not in MASK_KINDS:
            raise UnknownKind(f"unknown mask kind {kind!r} in plan")
    out: list[tuple[Spectrogram | MaskedSpectrogram, Provenance]] = []
    for spec in clips:
        out.append((spec, Provenance(spec.source_id, "original")))
    if not plan:
        return out
    for ci, spec in enumerate(clips):
        _check_widths(spec.values.shape, max_freq_width, max_time_width)
        fill = float(spec.values.mean())
        for ki, kind in enumerate(plan):
            variant_seed = int(np.random.default_rng([seed, ci, ki]).integers(0, 2**31 - 1))
            mask = MaskSpec(kind=kind, max_freq_width=max_freq_width,
                            max_time_width=max_time_width,
                            num_masks_per_axis=num_masks_per_axis, seed=variant_seed)
            out.append((MaskedSpectrogram(spec, mask, fill),
                        Provenance(spec.source_id, kind, variant_seed)))
    return out
