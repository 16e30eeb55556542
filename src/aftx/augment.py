"""Frequency/time masking of spectrograms and corpus-level augmentation.

``augment_corpus`` makes one variant of each clip per mask kind: a
frequency band, a time band, and ``FREQ_THEN_TIME``, which masks both axes.
Each axis gets one band whose width is uniform on [0, ``MAX_FREQ_WIDTH`` = 8]
mel bins or [0, ``MAX_TIME_WIDTH`` = 40] frames, and masked cells are filled
with the global mean of the clip.  Each axis draws its band from its own
seed-derived substream and both bands get the same constant fill, so the
order in which the axes are masked does not change the result, and one
composite kind covers both orders.

``augment_corpus`` keeps each variant as its recipe (source, kind, seed,
fill), not as a copy: the mask is applied each time the variant's
``values`` is read, so memory stays that of the originals however many
variants it makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Spectrogram
from .errors import MaskTooLarge, ShapeError, checked_seed, finite, real_array

FREQUENCY = "frequency"
TIME = "time"
FREQ_THEN_TIME = "freq_then_time"

MASK_KINDS = (FREQUENCY, TIME, FREQ_THEN_TIME)
MAX_FREQ_WIDTH = 8      # mel bins
MAX_TIME_WIDTH = 40     # frames

# per axis: the generator substream and the widest band
_AXES = {"freq": (0, MAX_FREQ_WIDTH), "time": (1, MAX_TIME_WIDTH)}


@dataclass(frozen=True)
class Provenance:
    source_id: str
    kind: str                    # "original" or a mask kind
    seed: int | None = None


def _band_limits(num_rows: int, axis: str) -> tuple[int, int]:
    """The substream and widest band of ``axis``: ShapeError for an axis other
    than ``"freq"`` or ``"time"``, MaskTooLarge if ``num_rows`` is no wider."""
    if axis not in _AXES:
        raise ShapeError(f"no mask axis {axis!r}; expected 'freq' or 'time'")
    stream, max_width = _AXES[axis]
    if max_width >= num_rows:
        raise MaskTooLarge(f"{axis} width {max_width} >= the axis's {num_rows} rows")
    return stream, max_width


def sample_mask_regions(num_rows: int, axis: str, seed: int) -> tuple[int, int]:
    """The deterministic [start, end) band of one axis, ``"freq"`` or ``"time"``.

    Its width is uniform on [0, the axis's widest band], which must be
    narrower than the axis; its position keeps it inside the axis.  The
    generator is derived from (seed, axis) so composition order cannot
    change the draw.  A seed other than a non-negative whole number raises
    InvalidSeed.
    """
    stream, max_width = _band_limits(num_rows, axis)
    rng = np.random.default_rng([checked_seed(seed), stream])
    width = int(rng.integers(0, max_width + 1))
    start = int(rng.integers(0, num_rows - width + 1))
    return start, start + width


def _masked(values: np.ndarray, kind: str, seed: int, fill: float) -> np.ndarray:
    """A fresh C-contiguous copy of ``values`` with the bands of ``kind`` set to ``fill``."""
    out = np.array(values, order="C")   # any array-like that augment_corpus accepts
    mel_bins, frames = out.shape
    if kind in (FREQUENCY, FREQ_THEN_TIME):
        start, end = sample_mask_regions(mel_bins, "freq", seed)
        out[start:end, :] = fill
    if kind in (TIME, FREQ_THEN_TIME):
        start, end = sample_mask_regions(frames, "time", seed)
        out[:, start:end] = fill
    return out


@dataclass(frozen=True)
class MaskedSpectrogram:
    """A masked variant kept as its recipe; each ``values`` read masks a fresh copy."""

    source: Spectrogram
    kind: str
    seed: int
    fill: float

    @property
    def values(self) -> np.ndarray:
        return _masked(self.source.values, self.kind, self.seed, self.fill)


def augment_corpus(clips: list[Spectrogram], seed: int,
                   ) -> list[tuple[Spectrogram | MaskedSpectrogram, Provenance]]:
    """The originals, then one masked variant per clip and kind of
    ``MASK_KINDS``: exactly four times the input size.

    Per-variant seeds are derived from (seed, clip index, kind index) so
    reruns are reproducible and recorded in the provenance tags.  Variants
    are masked when read, so each clip is checked here: values that are
    ragged or not 2-D raise ShapeError, not real NotReal, NaN or infinite
    NonFinite, and with no more than ``MAX_FREQ_WIDTH`` mel bins or
    ``MAX_TIME_WIDTH`` frames MaskTooLarge.  A seed other than a
    non-negative whole number raises InvalidSeed.
    """
    checked_seed(seed)
    out: list[tuple[Spectrogram | MaskedSpectrogram, Provenance]] = []
    for spec in clips:
        out.append((spec, Provenance(spec.source_id, "original")))
    for ci, spec in enumerate(clips):
        what = f"clip {spec.source_id!r} values [mel_bins, frames]"
        values = finite(real_array(spec.values, what, ndim=2), what)
        mel_bins, frames = values.shape
        _band_limits(mel_bins, "freq")
        _band_limits(frames, "time")
        fill = float(values.mean())
        for ki, kind in enumerate(MASK_KINDS):
            variant_seed = int(np.random.default_rng([seed, ci, ki]).integers(0, 2**31 - 1))
            out.append((MaskedSpectrogram(spec, kind, variant_seed, fill),
                        Provenance(spec.source_id, kind, variant_seed)))
    return out
