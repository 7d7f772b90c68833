"""Exception taxonomy shared across the package."""


class HennError(Exception):
    """Base class for all package errors."""


# --- slot engine -----------------------------------------------------------

class InputTooLong(HennError):
    """More values than the engine has slots."""


class LengthMismatch(HennError):
    """Operands with different slot counts."""


class DepthExhausted(HennError):
    """A leveled ciphertext has no rescaling level left for this operation."""


# --- matrix encoding -------------------------------------------------------

class WrongLayout(HennError):
    """Operation applied to an EncodedMatrix in an unsupported layout."""


class MatrixTooLarge(HennError):
    """Matrix does not fit the slot budget of the chosen layout."""


class IndexOutOfRange(HennError):
    """Row/column index outside the encoded matrix."""


# --- linear algebra --------------------------------------------------------

class DimensionMismatch(HennError):
    """Operand shapes are not conformable."""


class TileShapeMismatch(HennError):
    """Team tiles do not describe two conformable matrices."""


# --- losses ----------------------------------------------------------------

class NonFinite(HennError):
    """A value that must be finite is not: a log-likelihood term at its
    singularity, or a NaN or infinity in a document bound for strict JSON."""


class IllConditioned(HennError):
    """Least-squares system is numerically rank deficient."""


# --- data io ---------------------------------------------------------------

class ParseError(HennError):
    """Malformed input file; message names the offending line."""


class ShapeError(HennError):
    """Parsed data does not match the expected shape."""


class BadMagic(HennError):
    """IDX file with a wrong or truncated header."""


class CountMismatch(HennError):
    """IDX image/label files disagree on the record count."""


class VersionMismatch(HennError):
    """Checkpoint written by an incompatible format version."""


class DegenerateFeatureWarning(UserWarning):
    """A constant feature was zeroed out during normalization."""
