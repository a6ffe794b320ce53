"""Exception types shared across the package.

Validation problems (bad arguments, malformed records, text that is not
UTF-8) derive from ``ValidationError``; problems talking to the filesystem
derive from ``IoFailure``. The CLI maps the former to exit code 1 and the
latter to 2. ``fileio``'s ``read_bytes``, ``read_text`` and ``writing`` are
where an ``OSError`` becomes an ``IoFailure`` and a ``UnicodeDecodeError`` a
``MalformedFile``; every reader, given any bytes, raises only these types.
"""


class SaliencyError(Exception):
    """Base class for all package-specific errors."""


class WorkerDied(SaliencyError):
    """A process of the scene pool exited before returning its scene."""


class ValidationError(SaliencyError):
    """Invalid input data or configuration."""


class IoFailure(SaliencyError):
    """Filesystem-level failure while reading or writing an artifact."""


class InvalidConfig(ValidationError):
    """Configuration key unknown, or its value of the wrong type or range.

    Carries the offending key, e.g. ``nmf.r``.
    """

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


class NegativeInput(ValidationError):
    """Matrix handed to the factorizer has negative entries."""


class NonFiniteInput(ValidationError):
    """Matrix handed to the factorizer, or saliency map handed to a metric,
    has NaN or infinite entries."""


class RankTooLarge(ValidationError):
    """Requested concept count exceeds min(rows, cols)."""


class EmptyMask(ValidationError):
    """Attribute mask selects no attributes."""


class LengthMismatch(ValidationError):
    """Paired vectors have different lengths."""


class EmptyCloud(ValidationError):
    """Detector invoked on a cloud with no points."""


class DetectionNotFound(ValidationError):
    """Detection does not match any detector output for the scene."""


class DetectorFailure(ValidationError):
    """Detector could not service the request."""


class MalformedDump(ValidationError):
    """Feature-dump file does not conform to the binary layout."""


class MissingGradient(ValidationError):
    """Dump carries no gradient record for the requested detection/mask."""


class ShapeMismatch(ValidationError):
    """Dump arrays disagree on voxel count or channel count."""


class NoRegionPoints(ValidationError):
    """No scene points fall inside the perturbation region of a detection."""


class EmptyGroundTruth(ValidationError):
    """Ground-truth box contains no points of the cloud."""


class ZeroEnergy(ValidationError):
    """Saliency map has zero total mass."""


class DegenerateBox(ValidationError):
    """Box has a non-positive size component."""


class SchemaViolation(ValidationError):
    """JSON record violates the expected schema.

    Carries the path of the offending field, e.g. ``[2].size[0]``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class MalformedFile(ValidationError):
    """File has an impossible length or structure, or text that is not UTF-8."""
