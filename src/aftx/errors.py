"""Exception hierarchy. Every failure mode raised by the library is a subclass
of AftxError, named after the contract it violates.  Every input boundary
takes its arrays through the one array contract, ``real_array`` and ``finite``."""

import numpy as np


class AftxError(Exception):
    """Base class for all library errors."""


# --- tensor / autograd ---

class ShapeError(AftxError):
    """Operand shapes are incompatible for the requested operation."""


class InputTooShort(AftxError):
    """Input sequence or count is below the operation's minimum."""


class OddDimension(AftxError):
    """Sinusoidal encodings require an even model dimension."""


class HeadMismatch(AftxError):
    """The head count is not a positive integer that divides the model dimension."""


class LabelError(AftxError, KeyError):
    """A class label is missing or outside the valid range.

    Also a KeyError, because a missing label is a failed lookup by trait."""


class NotReal(AftxError):
    """Array data are not real numbers: complex values, strings or objects."""


class StaleGraph(AftxError):
    """backward() reached a graph node that an earlier backward consumed, or
    its loss depends on nothing that requires grad."""


class MissingGrad(AftxError):
    """A trainable parameter has no gradient at optimizer-step time."""


class NonFinite(AftxError):
    """A logit, gradient, correlation input, annotation value, judge score,
    spectrogram value or WAV sample is NaN or infinite."""


# --- audio / augmentation ---

class FormatError(AftxError):
    """A file is malformed for its format (WAV, AFTX1 or scores CSV)."""


class UnsupportedCodec(AftxError):
    """WAVE codec other than 16-bit PCM or IEEE float."""


class OutOfRange(AftxError):
    """A value lies outside what its file format holds exactly: a sample to be
    written as 16-bit PCM outside [-1, 1], or an AFTX1 integer beyond ±2**53."""


class MaskTooLarge(AftxError):
    """Mask width must be strictly smaller than the masked axis."""


class InvalidSeed(AftxError):
    """A seed is not a non-negative whole number."""


# --- corpus ---

class SchemaError(AftxError):
    """Judge scores break the corpus schema: wrong judge count or score range."""


class UnknownKind(AftxError):
    """A score scale that the library does not define."""


class MissingAnnotation(AftxError):
    """No annotation samples fall inside the requested clip window."""


class DegenerateLabels(AftxError):
    """A binary task needs both classes present."""


# --- metrics ---

class UndefinedRecall(AftxError):
    """A true class has no samples, so its recall is undefined."""


class UndefinedCorrelation(AftxError):
    """Correlation is undefined (constant input or zero variance)."""


# --- the array contract ---

def real_array(values, what: str, ndim: int | None = None) -> np.ndarray:
    """``values`` as an array, not copied if it is one: ShapeError if ragged or
    not ``ndim``-D (if given), NotReal if complex, string or object data."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise ShapeError(f"{what}: not a rectangular array ({exc})") from exc
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{what}: expected {ndim}-D, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf":
        raise NotReal(f"{what}: not real numbers, got dtype {arr.dtype}")
    return arr


def is_whole(n) -> bool:
    """Whether ``n`` is an integer (Python's or numpy's) and not a bool: the
    contract of a size, a count or a stride."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def checked_seed(seed):
    """``seed``, or InvalidSeed unless it is a non-negative whole number
    (``is_whole``): the contract of every seed a caller passes."""
    if not is_whole(seed) or seed < 0:
        raise InvalidSeed(f"a seed must be a non-negative whole number, got {seed!r}")
    return seed


def finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, or NonFinite if it holds NaN or infinity: its min and max
    propagate both, so no temporary of the array's size is made."""
    if arr.size and not np.isfinite([arr.min(), arr.max()]).all():
        raise NonFinite(f"{what}: NaN or infinity")
    return arr
