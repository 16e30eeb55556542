"""Exception hierarchy. Every failure mode raised by the library is a subclass
of AftxError, named after the contract it violates."""


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
    """Tensor data is not real numbers: complex values, strings or objects."""


class StaleGraph(AftxError):
    """backward() reached a graph node that an earlier backward consumed, or
    its loss depends on nothing that requires grad."""


class MissingGrad(AftxError):
    """A trainable parameter has no gradient at optimizer-step time."""


class NonFinite(AftxError):
    """A logit, gradient, correlation input, annotation value or WAV sample is
    NaN or infinite."""


# --- audio / augmentation ---

class FormatError(AftxError):
    """A file is malformed for its format (WAV, AFTX1 or scores CSV)."""


class UnsupportedCodec(AftxError):
    """WAVE codec other than 16-bit PCM or IEEE float."""


class MaskTooLarge(AftxError):
    """Mask width must be strictly smaller than the masked axis."""


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
