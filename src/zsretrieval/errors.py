"""Exception types shared across the package."""


class ZsrError(Exception):
    """Base class for package errors."""


class IngestError(ZsrError):
    """Malformed or unresolvable input data."""


class ConfigError(ZsrError):
    """Invalid training or job configuration."""


class EncodeError(ZsrError):
    """Query/text could not be encoded (e.g. no in-vocabulary words)."""


class ScoreError(ZsrError):
    """Scoring is undefined for the given vectors (e.g. zero norm under cosine)."""


class SizeGuardError(ZsrError):
    """A desk-scale-only routine was invoked on an instance that is too large."""


class NumericError(ZsrError):
    """Non-finite values or numerical failure during training."""


class RefreshError(ZsrError):
    """Warm-start extension was refused (e.g. removed ids without prune)."""


class ModelIOError(ZsrError):
    """Base class for model persistence failures."""


class FormatError(ModelIOError):
    """Bad magic, truncated file, or malformed header."""


class VersionError(ModelIOError):
    """On-disk format version is not supported."""


class ChecksumError(ModelIOError):
    """CRC mismatch on a binary block."""
