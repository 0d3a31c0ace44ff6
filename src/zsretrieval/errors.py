"""Exception types shared across the package, the range of every option, the JSON type rule."""
import sys


class ZsrError(Exception):
    """Base class for package errors. ``zsr`` prints ``label: message`` and
    exits with ``exit_code``; a subclass that names neither is a data error."""

    label, exit_code = "data error", 2


class IngestError(ZsrError):
    """Malformed or unresolvable input data."""


class ConfigError(ZsrError):
    """Invalid training or job configuration."""

    label, exit_code = "config error", 1


class EncodeError(ZsrError):
    """Query/text could not be encoded (e.g. no in-vocabulary words)."""


class ScoreError(ZsrError):
    """Scoring is undefined for the given vectors (e.g. zero norm under cosine)."""


class SizeGuardError(ZsrError):
    """A desk-scale-only routine was invoked on an instance that is too large."""


class NumericError(ZsrError):
    """Non-finite values or numerical failure during training."""

    label, exit_code = "numeric failure", 3


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


# The range each numeric option may take, by config key or field name. A
# block file stores its column count as uint32, so d stays below 2^32.
RANGES = {
    "d": ">= 1 and < 2^32", "dim": ">= 1 and < 2^32", "omega0": "in (0, 1]",
    "lam": "finite and >= 0", "init_std": "finite and >= 0", "learning_rate": "finite and > 0",
    "sweeps": ">= 0", "steps": ">= 0", "negatives": ">= 0", "batch_size": ">= 1", "seed": ">= 0",
    "sub_seed": ">= 0", "min_word_count": ">= 0", "min_item_count": ">= 0",
    "max_neighbors": ">= 1", "window": ">= 1", "k": ">= 1", "head": ">= 0",
    "head_len": ">= 0", "threads": ">= 1", "n_pairs": ">= 1", "n_clusters": ">= 2",
    "text_repeats": ">= 1", "background_words": ">= 0", "background_repeats": ">= 0",
}
LABELS = {"d": "embedding dimension d", "dim": "embedding dimension d", "lam": "lambda"}
_HOLDS = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
          ">= 1 and < 2^32": lambda v: 1 <= v < 2 ** 32,
          "in (0, 1]": lambda v: 0 < v <= 1,
          "finite and >= 0": lambda v: abs(v) <= sys.float_info.max and v >= 0,
          "finite and > 0": lambda v: abs(v) <= sys.float_info.max and v > 0}


def check(**options) -> None:
    """Refuse the first option outside its ``RANGES`` entry, naming it by its
    ``LABELS`` entry or its name; a None value or an unlisted name passes."""
    for name, value in options.items():
        if value is not None and name in RANGES and not _HOLDS[RANGES[name]](value):
            raise ConfigError(f"{LABELS.get(name, name)} must be {RANGES[name]}")


def is_json(value, want: type) -> bool:
    """Whether ``value``, read from JSON, serves a field of type ``want``: a
    bool serves only a bool field, and an int a float field within its range."""
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, want) and isinstance(value, bool) == (want is bool)
