"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can emit
diagnostics that scripts can parse.
"""


class HeadAlignError(Exception):
    """Base class for all package-specific failures."""

    code = "headalign-error"


class InvalidArgumentError(HeadAlignError, ValueError):
    code = "invalid-argument"


class InsufficientDataError(HeadAlignError, ValueError):
    code = "insufficient-data"


class AlignmentWindowError(HeadAlignError, ValueError):
    """Time ranges of the inputs do not cover the requested window."""

    code = "alignment-window"


class DegenerateGeometryError(HeadAlignError, ValueError):
    """Observation vectors are collinear or otherwise rank-deficient."""

    code = "degenerate-geometry"


class AmbiguousAttitudeError(HeadAlignError, ValueError):
    """The vector set does not pin down a unique rotation."""

    code = "ambiguous-attitude"


class DegenerateAttitudeError(HeadAlignError, ValueError):
    """No finite heading: the attitude is too close to a gimbal
    singularity, or an estimate's absolute error is not finite."""

    code = "degenerate-attitude"


class ShapeError(HeadAlignError, ValueError):
    code = "shape-error"


class ForwardCacheError(HeadAlignError, RuntimeError):
    """A layer's backward found no forward cache to consume: no forward
    ran before it, or a backward already consumed that forward's."""

    code = "forward-cache"


class RecordingFormatError(HeadAlignError, ValueError):
    """Malformed recording file; message cites the offending line."""

    code = "recording-format"


class TrainingDivergedError(HeadAlignError, ArithmeticError):
    """Non-finite loss; message cites epoch, batch, and first bad layer."""

    code = "training-diverged"
