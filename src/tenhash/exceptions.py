"""Error types raised across the package.

Most are thin ValueError subclasses so that generic callers can still catch
ValueError, while tests and the CLI can distinguish the exact failure.
"""


class TenhashError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TenhashError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConjugateSymmetryViolation(TenhashError, ValueError):
    """A core matrix to fold is not conjugate-symmetric across its
    columns, so the folded tensor would have a non-trivial imaginary
    part."""


class SvdNonConvergence(TenhashError, RuntimeError):
    """The underlying SVD backend failed to converge."""


class AnchorCountExceedsSamples(TenhashError, ValueError):
    """Requested more anchors than there are samples."""


class NonPositiveBandwidth(TenhashError, ValueError):
    """RBF kernel width must be finite and strictly positive."""


class InconsistentSampleCounts(TenhashError, ValueError):
    """Views or graphs passed together do not share a sample count."""


class ShapeMismatch(TenhashError, ValueError):
    """Matrices that must share a shape do not."""


class NonFinite(TenhashError, RuntimeError):
    """A NaN or Inf appeared in solver state."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class LengthMismatch(TenhashError, ValueError):
    """Two sequences that must agree in length do not."""


class EmptyInput(TenhashError, ValueError):
    """An operation that needs at least one element got none."""


class InvalidK(TenhashError, ValueError):
    """Cluster count outside the valid range 1..n."""


class NonSignCodes(TenhashError, ValueError):
    """Hash codes hold a value other than -1 or +1."""


class InvalidRatio(TenhashError, ValueError):
    """Noise ratio outside [0, 1]."""


class InvalidArgs(TenhashError, ValueError):
    """Generator or command arguments violate their documented bounds."""


class DatasetFormatError(TenhashError, ValueError):
    """Base for on-disk dataset format problems; carries the offending path."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message)
        self.path = path
        self.line = line


class MissingView(DatasetFormatError):
    """Dataset directory contains no view files, a gap in their numbering,
    or a view numbered 0 or with a leading zero."""


class RaggedRows(DatasetFormatError):
    """Rows within a view file, or sample counts across views, disagree."""


class LabelLengthMismatch(DatasetFormatError):
    """labels.csv length does not equal the sample count."""


class ParseError(DatasetFormatError):
    """A cell could not be parsed as a number."""


class NonFiniteInput(TenhashError, ValueError):
    """An input view holds a NaN or Inf, or a feature whose spread
    overflows; carries its 1-based position (sample None for a spread)."""

    def __init__(self, message, view=None, feature=None, sample=None):
        super().__init__(message)
        self.view = view
        self.feature = feature
        self.sample = sample
