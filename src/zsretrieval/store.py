"""Model parameter blocks: initialization, warm-start extension, persistence.

Blocks are float32 in memory and on disk; training upcasts to float64 for
accumulation. Initialization is counter-based (Philox keyed by seed, block
and row) so it is reproducible across runs and platforms.
"""
from __future__ import annotations

import json
import typing
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import binio
from .corpus import Corpus, write_id_tables
from .errors import ConfigError, FormatError, KindMismatchError, RefreshError, VersionError

FORMAT_VERSION = 1

STL = "stl"
ZSL_ME = "zsl_me"
ZSL_TE = "zsl_te"
SMC = "smc"
KINDS = (STL, ZSL_ME, ZSL_TE, SMC)

_BLOCK_MAGIC = {"W": b"ZSRMAT_W", "V": b"ZSRMAT_V", "U": b"ZSRMAT_U"}
_BLOCK_ID = {"W": 1, "V": 2, "U": 3}
OBJECTIVE = {"objective": True}  # metadata of a TrainConfig field saved with a model


@dataclass
class TrainConfig:
    """Square-loss training configuration; defaults follow the reference setup.

    Each field is a ``zsr`` option keyed by its name (or metadata ``key``), with
    flag ``--key-with-dashes`` (or metadata ``flag``; a bool flag sets the
    opposite of the default). ``objective`` fields are saved with a model.
    """

    kind: str = field(default=ZSL_TE, metadata={"key": "model", "choices": KINDS})
    d: int = field(default=200, metadata={"key": "dim"})
    omega0: float = field(default=0.001, metadata=OBJECTIVE)
    lam: float = field(default=4.0, metadata={"flag": "--lambda", **OBJECTIVE})
    sweeps: int = 10
    seed: int = 0
    init_std: float = field(default=0.1, metadata=OBJECTIVE)
    use_weights: bool = field(default=True, metadata={"flag": "--no-weights", **OBJECTIVE})
    weight_negatives: bool = field(default=True,
                                   metadata={"flag": "--unweighted-negatives", **OBJECTIVE})
    exclude_self_negative: bool = field(default=False, metadata=OBJECTIVE)
    task1_encoded: bool = field(default=False, metadata=OBJECTIVE)  # STL/ZSL_ME: encoded task 1

    def objective(self) -> dict:
        """The fields that define the trained objective, as saved with a model."""
        return {key: want(getattr(self, key)) for key, want in OBJECTIVE_FIELDS.items()}

    def validate(self) -> None:
        if self.kind not in (STL, ZSL_ME, ZSL_TE):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.d < 1:
            raise ConfigError("embedding dimension d must be >= 1")
        if not (0 < self.omega0 <= 1.0):
            raise ConfigError("omega0 must be in (0, 1]")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")
        if self.sweeps < 0:
            raise ConfigError("sweeps must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


# Objective field -> the type it has in meta.json; refresh and loss-audit default to them.
OBJECTIVE_FIELDS = {name: want for name, want in typing.get_type_hints(TrainConfig).items()
                    if TrainConfig.__dataclass_fields__[name].metadata.get("objective")}


@dataclass
class ModelState:
    """Embedding blocks plus metadata. U is present only for ZSL_ME."""

    kind: str
    d: int
    W: np.ndarray
    V: np.ndarray
    U: np.ndarray | None
    seed: int
    sweep_count: int = 0
    score_mode: str = "cosine"
    objective: dict | None = None  # TrainConfig.objective() of the last training

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]

    def copy(self) -> "ModelState":
        return replace(self, W=self.W.copy(), V=self.V.copy(),
                       U=None if self.U is None else self.U.copy())


def _row_rng(seed: int, block: str, row: int) -> np.random.Generator:
    key = np.array([
        (seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF,
        (_BLOCK_ID[block] << 48) | row,
    ], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def init_rows(seed: int, block: str, rows: range | list[int], d: int, init_std: float) -> np.ndarray:
    out = np.empty((len(rows), d), dtype=np.float32)
    for k, row in enumerate(rows):
        rng = _row_rng(seed, block, row)
        out[k] = (rng.standard_normal(d) * init_std).astype(np.float32)
    return out


def init_model_state(config: TrainConfig, corpus: Corpus) -> ModelState:
    """Zero-mean Gaussian init, deterministic per (seed, block, row)."""
    config.validate()
    if config.init_std == 0.0:
        warnings.warn("init_std=0 gives all-zero blocks; training may be degenerate")
    W = init_rows(config.seed, "W", range(corpus.m), config.d, config.init_std)
    V = init_rows(config.seed, "V", range(corpus.n), config.d, config.init_std)
    U = None
    if config.kind == ZSL_ME:
        U = init_rows(config.seed, "U", range(corpus.n), config.d, config.init_std)
    score_mode = "dot" if config.kind == SMC else "cosine"
    return ModelState(config.kind, config.d, W, V, U, config.seed, 0, score_mode)


def warm_start_extend(
    state: ModelState,
    old_corpus: Corpus,
    new_corpus: Corpus,
    sub_seed: int | None = None,
    prune: bool = False,
    init_std: float = 0.1,
) -> ModelState:
    """Re-index retained rows bit-exactly; initialize rows for new ids.

    Refuses when the new corpus dropped ids/tokens, unless ``prune`` is set.
    The caller is expected to follow up with a few training sweeps.
    """
    if sub_seed is None:
        sub_seed = state.seed + 1
    removed_items = [i for i in old_corpus.item_ids if i not in new_corpus.item_index]
    removed_words = [w for w in old_corpus.vocab if w not in new_corpus.vocab_index]
    if (removed_items or removed_words) and not prune:
        raise RefreshError(
            f"new corpus is missing {len(removed_items)} items and "
            f"{len(removed_words)} words: {removed_items[:10] + removed_words[:10]}; "
            "pass prune=True to drop them")

    def extend(block: str, old: np.ndarray, old_keys: list[str],
               new_index: dict[str, int], new_rows: int) -> np.ndarray:
        out = np.empty((new_rows, state.d), dtype=np.float32)
        fresh = np.ones(new_rows, dtype=bool)
        for old_row, key in enumerate(old_keys):
            new_row = new_index.get(key)
            if new_row is not None:
                out[new_row] = old[old_row]
                fresh[new_row] = False
        for new_row in np.nonzero(fresh)[0]:
            out[new_row] = init_rows(sub_seed, block, [int(new_row)], state.d, init_std)[0]
        return out

    W = extend("W", state.W, old_corpus.vocab, new_corpus.vocab_index, new_corpus.m)
    V = extend("V", state.V, old_corpus.item_ids, new_corpus.item_index, new_corpus.n)
    U = None
    if state.U is not None:
        U = extend("U", state.U, old_corpus.item_ids, new_corpus.item_index, new_corpus.n)
    return replace(state, W=W, V=V, U=U)


# ---------------------------------------------------------------------------
# Persistence


def save_model(state: ModelState, directory: str | Path, corpus: Corpus | None = None) -> None:
    """Write meta.json and the binary blocks; optionally copy the id tables."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": FORMAT_VERSION,
        "kind": state.kind,
        "d": state.d,
        "m": state.m,
        "n": state.n,
        "seed": state.seed,
        "sweep_count": state.sweep_count,
        "score_mode": state.score_mode,
    }
    if state.objective is not None:
        meta["objective"] = state.objective
    binio.atomic_write_bytes(directory / "meta.json",
                             json.dumps(meta, indent=2, sort_keys=True).encode())
    binio.write_matrix(directory / "W.bin", _BLOCK_MAGIC["W"], state.W)
    binio.write_matrix(directory / "V.bin", _BLOCK_MAGIC["V"], state.V)
    if state.U is not None:
        binio.write_matrix(directory / "U.bin", _BLOCK_MAGIC["U"], state.U)
    if corpus is not None:
        write_id_tables(corpus, directory)


def load_model(directory: str | Path, expect_kind: str | None = None) -> ModelState:
    directory = Path(directory)
    try:
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise FormatError(f"{directory}/meta.json: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{directory}/meta.json: not a JSON object")
    if meta.get("version") != FORMAT_VERSION:
        raise VersionError(f"unsupported model format version {meta.get('version')!r}")
    for key in ("m", "n", "d", "seed", "sweep_count"):
        if not isinstance(meta.get(key), int) or isinstance(meta[key], bool):
            raise FormatError(f"{directory}/meta.json: {key!r} must be an integer")
    kind = meta.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{directory}/meta.json: unknown model kind {kind!r} under 'kind'")
    if expect_kind is not None and kind != expect_kind:
        raise KindMismatchError(f"model kind is {kind!r}, expected {expect_kind!r}")
    W = binio.read_matrix(directory / "W.bin", _BLOCK_MAGIC["W"])
    V = binio.read_matrix(directory / "V.bin", _BLOCK_MAGIC["V"])
    U = None
    if kind == ZSL_ME:
        U = binio.read_matrix(directory / "U.bin", _BLOCK_MAGIC["U"])
    if W.shape != (meta["m"], meta["d"]) or V.shape != (meta["n"], meta["d"]):
        raise FormatError("matrix shapes disagree with meta.json")
    score_mode = meta.get("score_mode", "cosine")
    if score_mode not in ("dot", "cosine"):
        raise FormatError(f"{directory}/meta.json: unknown score mode {score_mode!r}")
    objective = meta.get("objective")
    if objective is not None:
        if not isinstance(objective, dict):
            raise FormatError(f"{directory}/meta.json: 'objective' must be an object")
        for key, value in objective.items():
            want = OBJECTIVE_FIELDS.get(key)
            if (want is None or not isinstance(value, (int, float))
                    or isinstance(value, bool) != (want is bool)):
                raise FormatError(f"{directory}/meta.json: bad objective field {key!r}")
        objective = {key: OBJECTIVE_FIELDS[key](value) for key, value in objective.items()}
    return ModelState(kind, meta["d"], W, V, U, meta["seed"], meta["sweep_count"],
                      score_mode, objective)
