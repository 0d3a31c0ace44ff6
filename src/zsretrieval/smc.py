"""Supervised multiclass baseline: BOW queries, sampled softmax, SGD.

Trains word and item embeddings on (query, item) pairs. Negatives are drawn
per example, uniformly or log-uniformly, excluding the target, which is
always placed in the candidate set; with the full candidate set the batch
gradient equals the exact-softmax gradient. A step works on the batch as one
block: one ``encode_rows`` of its queries, one batched product for the
logits and one scatter into the touched rows of each of W and V.
``ce_loss_exact`` is the desk-scale full-softmax evaluator used as the
training oracle and for diagnostics on any model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Rows
from .encoder import encode_bow, encode_rows
from .errors import ConfigError, NumericError, SizeGuardError, check
from .store import SMC, ModelState, init_rows

CE_MAX_ITEMS = 50_000
SAMPLINGS = ("uniform", "log_uniform")

QueryItemPairs = list[tuple[list[int], int]]  # (query word indices, target item)


@dataclass
class SMCConfig:
    """Sampled-softmax training configuration."""

    d: int = 200
    negatives: int = 100
    batch_size: int = 128
    learning_rate: float = 0.06
    steps: int = 1000
    seed: int = 0
    sampling: str = "uniform"
    init_std: float = 0.1

    def validate(self) -> None:
        if self.sampling not in SAMPLINGS:
            raise ConfigError(f"unknown sampling scheme {self.sampling!r}")
        check(**vars(self))


def _log_uniform_probs(n: int) -> np.ndarray:
    # P(k) ~ log((k+2)/(k+1)) / log(n+1), the usual rank-based proxy.
    k = np.arange(n, dtype=np.float64)
    return np.log((k + 2) / (k + 1)) / math.log(n + 1)


def _scatter(rows: np.ndarray, grads: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct ``rows``, ascending; the sum of each one's ``grads``
    rows in entry order, times ``scale``)."""
    touched, at = np.unique(rows, return_inverse=True)
    G = np.zeros((len(touched), grads.shape[1]))
    np.add.at(G, at, grads)
    return touched, G * scale


def batch_gradients(
    W: np.ndarray,
    V: np.ndarray,
    queries: Rows,
    candidates: np.ndarray,
    log_q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Mean sampled-softmax CE gradient for one batch of B queries.

    Each query row holds at least one word. Row b of the (B, c)
    ``candidates`` lists the classes for query b with the target first; row b
    of ``log_q`` holds the sampling-correction terms subtracted from its
    logits. Returns the touched W rows and their gradients, the touched V
    rows and their gradients, and the mean batch loss.
    """
    _, Q = encode_rows(queries, W)
    Vc = V[candidates]
    logits = (Vc @ Q[:, :, None])[:, :, 0] - log_q
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    scale = 1.0 / len(Q)
    loss = float(-np.log(np.maximum(p[:, 0], 1e-300)).sum()) * scale
    p[:, 0] -= 1.0  # d loss / d logit
    dQ = (p[:, None, :] @ Vc)[:, 0] / queries.lengths()[:, None]
    w_rows, gW = _scatter(queries.values, dQ[queries.row_ids()], scale)
    dV = p[:, :, None] * Q[:, None, :]
    v_rows, gV = _scatter(candidates.ravel(), dV.reshape(-1, dV.shape[2]), scale)
    return w_rows, gW, v_rows, gV, loss


def sample_candidates(
    rng: np.random.Generator,
    n_items: int,
    target: int,
    negatives: int,
    sampling: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate classes (target first) and their logit corrections.

    The ``min(negatives, n_items - 1)`` negatives are drawn without
    replacement as ranks among the items other than the target, each rank
    then stepped past the target. With no negative to draw, ``rng`` is not
    used.
    """
    s = min(negatives, n_items - 1)
    p = None
    if sampling == "log_uniform":
        full = _log_uniform_probs(n_items)
        p = np.delete(full, target)
        p /= p.sum()
    k = rng.choice(n_items - 1, size=s, replace=False, p=p) if s else np.zeros(0, np.int64)
    cand = np.concatenate(([target], k + (k >= target))).astype(np.int64)
    if p is not None:
        return cand, np.log(full[cand])
    # Uniform without replacement: identical correction everywhere, so it
    # cancels in the softmax; kept explicit for symmetry with log-uniform.
    return cand, np.full(s + 1, math.log(s / (n_items - 1)) if s else 0.0)


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
        # one draw per example, in batch order: the stream fixes the candidates
        cands, logqs = zip(*(sample_candidates(rng, corpus.n, t, config.negatives, config.sampling)
                             for t in targets[take].tolist()))
        w_rows, gW, v_rows, gV, loss = batch_gradients(W, V, queries.take(take)[0],
                                                       np.stack(cands), np.stack(logqs))
        if not math.isfinite(loss):
            raise NumericError(f"training diverged at step {step}")
        W[w_rows] -= config.learning_rate * gW
        V[v_rows] -= config.learning_rate * gV
    return ModelState(SMC, config.d, W.astype(np.float32), V.astype(np.float32),
                      None, config.seed, config.steps, score_mode="dot")


def ce_loss_exact(state: ModelState, pairs: QueryItemPairs,
                  max_items: int = CE_MAX_ITEMS) -> float:
    """Mean over pairs of the full-softmax cross-entropy -log Pr(target | query)
    with logits ``V @ encode_bow(query)``. Desk scale only."""
    if state.n > max_items:
        raise SizeGuardError(f"{state.n} items exceeds the exact-CE guard ({max_items})")
    if not pairs:
        raise ConfigError("no pairs to score")
    V = state.V.astype(np.float64)
    total = 0.0
    for words, t in pairs:
        logits = V @ encode_bow(words, state.W)
        z = np.delete(logits, t) - logits[t]
        if not len(z):  # a one-item model predicts its only item with certainty
            continue
        zm = float(z.max())
        s = float(np.exp(z - zm).sum())
        total += float(np.logaddexp(0.0, zm + math.log(s)))
    return total / len(pairs)
