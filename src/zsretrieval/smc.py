"""Supervised multiclass baseline: BOW queries, sampled softmax, SGD.

Trains word and item embeddings on (query, item) pairs. Negatives are drawn
uniformly per example, excluding the target, which is always placed in the
candidate set; with the full candidate set the batch gradient equals the
exact-softmax gradient. ``ce_loss_exact`` is the desk-scale full-softmax
evaluator used as the training oracle and for diagnostics on any model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Rows
from .errors import ConfigError, NumericError, SizeGuardError
from .store import SMC, ModelState, init_rows

CE_MAX_ITEMS = 50_000
SAMPLINGS = ("uniform", "log_uniform")

QueryItemPairs = list[tuple[list[int], int]]  # (query word indices, target item)


@dataclass
class SMCConfig:
    """Sampled-softmax training configuration; fields are options as in ``TrainConfig``."""

    d: int = field(default=200, metadata={"key": "dim"})
    negatives: int = 100
    batch_size: int = 128
    learning_rate: float = 0.06
    steps: int = 1000
    seed: int = 0
    sampling: str = field(default="uniform", metadata={"choices": SAMPLINGS})
    init_std: float = 0.1

    def validate(self) -> None:
        if self.d < 1 or self.negatives < 0 or self.batch_size < 1 or self.steps < 0:
            raise ConfigError("invalid SMC configuration")
        if self.sampling not in SAMPLINGS:
            raise ConfigError(f"unknown sampling scheme {self.sampling!r}")


def _log_uniform_probs(n: int) -> np.ndarray:
    # P(k) ~ log((k+2)/(k+1)) / log(n+1), the usual rank-based proxy.
    k = np.arange(n, dtype=np.float64)
    return np.log((k + 2) / (k + 1)) / math.log(n + 1)


def batch_gradients(
    W: np.ndarray,
    V: np.ndarray,
    queries: list[np.ndarray],
    targets: np.ndarray,
    candidates: list[np.ndarray],
    log_q: list[np.ndarray],
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], float]:
    """Mean sampled-softmax CE gradient for one batch.

    ``candidates[b]`` lists the classes for example b with the target first;
    ``log_q[b]`` holds the sampling-correction terms subtracted from logits.
    Returns sparse row gradients for W and V plus the mean batch loss.
    """
    gW: dict[int, np.ndarray] = {}
    gV: dict[int, np.ndarray] = {}
    bsz = len(queries)
    loss = 0.0
    for b in range(bsz):
        widx = queries[b]
        q = W[widx].mean(axis=0)
        cand = candidates[b]
        logits = V[cand] @ q - log_q[b]
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        loss += -math.log(max(p[0], 1e-300))
        dlogit = p.copy()
        dlogit[0] -= 1.0
        dq = dlogit @ V[cand]
        for c, g in zip(cand, dlogit[:, None] * q[None, :]):
            c = int(c)
            gV[c] = gV.get(c, 0.0) + g
        gw = dq / len(widx)
        for w in widx:
            w = int(w)
            gW[w] = gW.get(w, 0.0) + gw
    scale = 1.0 / bsz
    return ({k: v * scale for k, v in gW.items()},
            {k: v * scale for k, v in gV.items()},
            loss * scale)


def sample_candidates(
    rng: np.random.Generator,
    n_items: int,
    target: int,
    negatives: int,
    sampling: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate classes (target first) and their logit corrections."""
    s = min(negatives, n_items - 1)
    others = np.concatenate([np.arange(target), np.arange(target + 1, n_items)])
    if sampling == "uniform":
        neg = rng.choice(others, size=s, replace=False)
        # Uniform without replacement: identical correction everywhere, so it
        # cancels in the softmax; kept explicit for symmetry with log-uniform.
        logq = np.full(s + 1, math.log(max(s, 1) / (n_items - 1)) if s else 0.0)
    else:
        probs = _log_uniform_probs(n_items)[others]
        probs = probs / probs.sum()
        neg = rng.choice(others, size=s, replace=False, p=probs)
        full = _log_uniform_probs(n_items)
        logq = np.log(np.concatenate([[full[target]], full[neg]]))
    cand = np.concatenate([[target], neg]).astype(np.int64)
    return cand, logq


def train_smc(pairs: QueryItemPairs, corpus: Corpus, config: SMCConfig) -> ModelState:
    """Mini-batch SGD on sampled-softmax cross-entropy with dot-product logits."""
    config.validate()
    if not pairs:
        raise ConfigError("no training pairs")
    for widx, t in pairs:
        if not (0 <= t < corpus.n):
            raise ConfigError(f"target item index {t} out of range")
        if not widx:
            raise ConfigError("query with no in-vocabulary words")
    W = init_rows(config.seed, "W", range(corpus.m), config.d, config.init_std).astype(np.float64)
    V = init_rows(config.seed, "V", range(corpus.n), config.d, config.init_std).astype(np.float64)
    rng = np.random.default_rng(config.seed)
    queries = Rows.from_lists([w for w, _ in pairs])
    targets = np.array([t for _, t in pairs], dtype=np.int64)

    order = rng.permutation(len(pairs))
    cursor = 0
    for step in range(config.steps):
        if cursor + config.batch_size > len(order):
            order = rng.permutation(len(pairs))
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        bq = [queries[i] for i in take]
        bt = targets[take]
        cands, logqs = [], []
        for t in bt:
            cand, logq = sample_candidates(rng, corpus.n, int(t), config.negatives,
                                           config.sampling)
            cands.append(cand)
            logqs.append(logq)
        gW, gV, loss = batch_gradients(W, V, bq, bt, cands, logqs)
        if not math.isfinite(loss):
            raise NumericError(f"training diverged at step {step}")
        for w, g in gW.items():
            W[w] -= config.learning_rate * g
        for c, g in gV.items():
            V[c] -= config.learning_rate * g
    return ModelState(SMC, config.d, W.astype(np.float32), V.astype(np.float32),
                      None, config.seed, config.steps, score_mode="dot")


def _mean_full_ce(state: ModelState, pairs: list, encode, max_items: int) -> float:
    """Mean over ``(context, target)`` pairs of the full-softmax cross-entropy
    -log Pr(target | encode(context)) with logits ``V @ encode(context)``."""
    if state.n > max_items:
        raise SizeGuardError(f"{state.n} items exceeds the exact-CE guard ({max_items})")
    if not pairs:
        raise ConfigError("no pairs to score")
    V = state.V.astype(np.float64)
    total = 0.0
    for context, t in pairs:
        logits = V @ encode(context)
        z = np.delete(logits, t) - logits[t]
        if not len(z):  # a one-item model predicts its only item with certainty
            continue
        zm = float(z.max())
        s = float(np.exp(z - zm).sum())
        total += float(np.logaddexp(0.0, zm + math.log(s)))
    return total / len(pairs)


def ce_loss_exact(state: ModelState, pairs: QueryItemPairs,
                  max_items: int = CE_MAX_ITEMS) -> float:
    """Mean full-softmax cross-entropy of each pair's target. Desk scale only."""
    W = state.W.astype(np.float64)
    return _mean_full_ce(state, pairs,
                         lambda widx: W[np.asarray(widx, dtype=np.int64)].mean(axis=0),
                         max_items)


def ce_loss_exact_context(state: ModelState, item_pairs: list[tuple[int, int]],
                          corpus: Corpus | None = None,
                          max_items: int = CE_MAX_ITEMS) -> float:
    """Full-softmax CE of Pr(target | context item) for diagnostic use.

    Context vectors come from the free U block when present, otherwise from
    the BOW encoding of the context item's text (requires ``corpus``).
    """
    if state.U is not None:
        ctx = state.U.astype(np.float64)
        get = lambda j: ctx[j]
    else:
        if corpus is None:
            raise ConfigError("corpus required to encode context items for this model")
        W = state.W.astype(np.float64)

        def get(j: int) -> np.ndarray:
            wl = corpus.word_lists[j]
            if not len(wl):
                raise ConfigError(f"context item {j} has no text to encode")
            return W[wl].mean(axis=0)

    return _mean_full_ce(state, item_pairs, get, max_items)
