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
from .corpus import Corpus
from .errors import ConfigError, FormatError, RefreshError, VersionError, check, is_json
from .retrieval import SCORE_MODES

FORMAT_VERSION = 1

STL = "stl"
ZSL_ME = "zsl_me"
ZSL_TE = "zsl_te"
SMC = "smc"
# The tasks of each square-loss kind, as (loss part, context block, encoded):
# task 1 fits item rows to their words' W rows (encoded under task1_encoded),
# task 2 to their graph neighbors' rows, free U rows or BOW means of W rows.
TASKS = {
    STL: (("task1", "W", False),),
    ZSL_ME: (("task1", "W", False), ("task2", "U", False)),
    ZSL_TE: (("task2", "W", True),),
}
KINDS = (*TASKS, SMC)
# The blocks of each kind, in file order: W, V and each task's context block.
BLOCKS = {kind: list(dict.fromkeys(["W", "V", *(ctx for _, ctx, _ in TASKS.get(kind, ()))]))
          for kind in KINDS}

_BLOCK_MAGIC = {"W": b"ZSRMAT_W", "V": b"ZSRMAT_V", "U": b"ZSRMAT_U"}
_BLOCK_ID = {"W": 1, "V": 2, "U": 3}
OBJECTIVE = {"objective": True}  # metadata of a TrainConfig field saved with a model


@dataclass
class TrainConfig:
    """Square-loss training configuration; defaults follow the reference setup.

    ``objective`` fields are saved with a model.
    """

    kind: str = ZSL_TE
    d: int = 200
    omega0: float = field(default=0.001, metadata=OBJECTIVE)
    lam: float = field(default=4.0, metadata=OBJECTIVE)
    sweeps: int = 10
    seed: int = 0
    init_std: float = field(default=0.1, metadata=OBJECTIVE)
    use_weights: bool = field(default=True, metadata=OBJECTIVE)
    weight_negatives: bool = field(default=True, metadata=OBJECTIVE)
    exclude_self_negative: bool = field(default=False, metadata=OBJECTIVE)
    task1_encoded: bool = field(default=False, metadata=OBJECTIVE)  # STL/ZSL_ME: encoded task 1

    def objective(self) -> dict:
        """The fields that define the trained objective, as saved with a model."""
        return {key: want(getattr(self, key)) for key, want in OBJECTIVE_FIELDS.items()}

    def validate(self) -> None:
        self.tasks()  # refuses a kind without square-loss tasks
        check(**vars(self))

    def tasks(self) -> list[tuple[str, str, bool]]:
        """The kind's ``TASKS``, task 1 encoded under ``task1_encoded``."""
        if self.kind not in TASKS:
            raise ConfigError(f"kind {self.kind!r} is not square-loss trainable; "
                              f"square-loss kinds: {', '.join(TASKS)}")
        return [(part, block, encoded or part == "task1" and self.task1_encoded)
                for part, block, encoded in TASKS[self.kind]]


# Objective field -> the type it has in meta.json; refresh and loss-audit default to them.
OBJECTIVE_FIELDS = {name: want for name, want in typing.get_type_hints(TrainConfig).items()
                    if TrainConfig.__dataclass_fields__[name].metadata.get("objective")}


@dataclass
class ModelState:
    """Embedding blocks plus metadata; ``blocks`` holds those the kind has (U: ZSL_ME)."""

    kind: str
    d: int
    W: np.ndarray
    V: np.ndarray
    U: np.ndarray | None
    seed: int
    sweep_count: int = 0
    score_mode: str = "cosine"
    objective: dict | None = None  # TrainConfig.objective() of the last training
    ids_sha256: str | None = None  # Corpus.id_digest() of the corpus it was saved with

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def blocks(self) -> dict[str, np.ndarray]:
        """The blocks the kind has, by name: W, V and each task's context block."""
        return {name: getattr(self, name) for name in BLOCKS[self.kind]}

    def copy(self) -> "ModelState":
        return replace(self, **{name: block.copy() for name, block in self.blocks.items()})


def init_rows(seed: int, block: str, rows: range | list[int], d: int, init_std: float) -> np.ndarray:
    """A float32 row ``N(0, init_std²)`` for each index in ``rows``, drawn from
    the Philox stream keyed by (seed, block, row). One generator is re-keyed
    per row by setting its state, which is cheaper than building a new one."""
    out = np.empty((len(rows), d), dtype=np.float32)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0 and an empty buffer, as a new generator has
    key = fresh["state"]["key"]
    key[0] = (seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    for k, row in enumerate(rows):
        key[1] = (_BLOCK_ID[block] << 48) | row
        bitgen.state = fresh
        out[k] = (rng.standard_normal(d) * init_std).astype(np.float32)
    return out


def init_model_state(config: TrainConfig, corpus: Corpus) -> ModelState:
    """Zero-mean Gaussian init, deterministic per (seed, block, row)."""
    config.validate()
    if config.init_std == 0.0:
        warnings.warn("init_std=0 gives all-zero blocks; training may be degenerate")
    blocks = {name: init_rows(config.seed, name, range(corpus.m if name == "W" else corpus.n),
                              config.d, config.init_std) for name in BLOCKS[config.kind]}
    return ModelState(config.kind, config.d, blocks["W"], blocks["V"], blocks.get("U"),
                      config.seed, 0)


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
    check(sub_seed=sub_seed)
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
        out[fresh] = init_rows(sub_seed, block, np.flatnonzero(fresh).tolist(), state.d, init_std)
        return out

    words = (old_corpus.vocab, new_corpus.vocab_index, new_corpus.m)
    items = (old_corpus.item_ids, new_corpus.item_index, new_corpus.n)
    return replace(state, **{name: extend(name, block, *(words if name == "W" else items))
                             for name, block in state.blocks.items()})


# ---------------------------------------------------------------------------
# Persistence


def save_model(state: ModelState, directory: str | Path, corpus: Corpus) -> None:
    """Write meta.json, with the id digest of the model's corpus, and the binary blocks."""
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
        "ids_sha256": corpus.id_digest(),
    }
    if state.objective is not None:
        meta["objective"] = state.objective
    binio.atomic_write_bytes(directory / "meta.json",
                             json.dumps(meta, indent=2, sort_keys=True).encode())
    for name, block in state.blocks.items():
        binio.write_matrix(directory / f"{name}.bin", _BLOCK_MAGIC[name], block)


def load_model(directory: str | Path) -> ModelState:
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
        if not is_json(meta.get(key), int):
            raise FormatError(f"{directory}/meta.json: {key!r} must be an integer")
    kind = meta.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{directory}/meta.json: unknown model kind {kind!r} under 'kind'")
    blocks = {name: binio.read_matrix(directory / f"{name}.bin", _BLOCK_MAGIC[name])
              for name in BLOCKS[kind]}
    if any(block.shape != (meta["m"] if name == "W" else meta["n"], meta["d"])
           for name, block in blocks.items()):
        raise FormatError("matrix shapes disagree with meta.json")
    score_mode = meta.get("score_mode")
    if score_mode not in SCORE_MODES:
        raise FormatError(f"{directory}/meta.json: unknown score mode {score_mode!r} "
                          "under 'score_mode'")
    objective = meta.get("objective")
    if objective is not None:
        if not isinstance(objective, dict):
            raise FormatError(f"{directory}/meta.json: 'objective' must be an object")
        for key, value in objective.items():
            if key not in OBJECTIVE_FIELDS or not is_json(value, OBJECTIVE_FIELDS[key]):
                raise FormatError(f"{directory}/meta.json: bad objective field {key!r}")
        objective = {key: OBJECTIVE_FIELDS[key](value) for key, value in objective.items()}
        try:
            TrainConfig(**objective).validate()
        except ConfigError as exc:
            raise FormatError(f"{directory}/meta.json: objective: {exc}") from None
    return ModelState(kind, meta["d"], blocks["W"], blocks["V"], blocks.get("U"), meta["seed"],
                      meta["sweep_count"], score_mode, objective, meta.get("ids_sha256"))
