"""Weighted square-loss training with full negatives via coordinate descent.

Three model kinds share one machinery:

* ``stl``     -- text task only (per-word implicit factorization by default).
* ``zsl_me``  -- text task plus neighbor-prediction task with free context rows.
* ``zsl_te``  -- neighbor-prediction task only, context rows encoded as the
                 bag-of-words mean of the item's text.

Every unobserved pair contributes an implicit term weighted by ``omega0``;
the quadratic structure lets the full-negative sums be accumulated through
d x d Gramian matrices instead of enumerating all pairs. Each row update is
the exact minimizer of the full regularized loss restricted to that row, so
sequential sweeps are monotone non-increasing.

``sl_loss_bruteforce`` is a deliberately naive term-by-term enumeration kept
as an independent oracle for the efficient path; it refuses large instances.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, CorrelationGraph, Rows, TrainingWeights, compute_training_weights
from .errors import ConfigError, NumericError, SizeGuardError
from .store import STL, ZSL_ME, ZSL_TE, ModelState, TrainConfig, init_model_state

BRUTEFORCE_MAX_TERMS = 50_000


def task_modes(config: TrainConfig) -> tuple[str | None, bool, bool]:
    """Return (task1 mode or None, task2 active, context rows free)."""
    t1 = "encoded" if config.task1_encoded else "perword"
    if config.kind == STL:
        return t1, False, False
    if config.kind == ZSL_ME:
        return t1, True, True
    if config.kind == ZSL_TE:
        return None, True, False
    raise ConfigError(f"kind {config.kind!r} is not square-loss trainable")


def resolve_weights(corpus: Corpus, config: TrainConfig,
                    weights: TrainingWeights | None = None) -> tuple[np.ndarray, ...]:
    """Effective (pos_row, pos_col, neg_row, neg_col) item weight vectors."""
    ones = np.ones(corpus.n, dtype=np.float64)
    if not config.use_weights:
        return ones, ones.copy(), ones.copy(), ones.copy()
    if weights is None:
        weights = compute_training_weights(corpus.graph)
    pos_r, pos_c = weights.row.astype(np.float64), weights.col.astype(np.float64)
    if config.weight_negatives:
        return pos_r, pos_c, pos_r.copy(), pos_c.copy()
    return pos_r, pos_c, ones, ones.copy()


def _distinct_incidence(corpus: Corpus) -> tuple[Rows, Rows]:
    """Per item: its distinct word indices, ascending, and their multiplicities
    (float64), as rows sharing one ``indptr``."""
    words, m = corpus.word_lists, corpus.m
    keys, mult = np.unique(words.row_ids() * m + words.values, return_counts=True)
    incidence = Rows.from_coo(keys // m, keys % m, corpus.n)
    return incidence, Rows(incidence.indptr, mult.astype(np.float64))


def _self_edges(graph: CorrelationGraph) -> np.ndarray:
    """Boolean per item: whether the item lists itself as a neighbor."""
    src = graph.neighbors.row_ids()
    return np.bincount(src[graph.neighbors.values == src], minlength=graph.n) > 0


def _bow_rows(corpus: Corpus, W64: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(item indices with text, their BOW encodings) as float64."""
    words = corpus.word_lists
    lens = words.lengths()
    ids = np.flatnonzero(lens)
    if not len(ids):
        return ids, np.zeros((0, W64.shape[1]), dtype=np.float64)
    enc = np.add.reduceat(W64[words.values], words.indptr[ids], axis=0) / lens[ids][:, None]
    return ids, enc


# ---------------------------------------------------------------------------
# Loss oracles


def sl_loss_bruteforce(
    state: ModelState,
    corpus: Corpus,
    config: TrainConfig,
    weights: TrainingWeights | None = None,
    max_terms: int = BRUTEFORCE_MAX_TERMS,
) -> float:
    """Exact loss by enumerating every (target, context) pair. Desk scale only."""
    t1_mode, t2, free_u = task_modes(config)
    n, m = corpus.n, corpus.m
    terms = 0
    if t1_mode == "perword":
        terms += n * m
    elif t1_mode == "encoded":
        terms += n * n
    if t2:
        terms += n * n
    if terms > max_terms:
        raise SizeGuardError(
            f"{terms} terms exceeds the brute-force guard ({max_terms}); "
            "use sl_loss_efficient")

    pos_r, pos_c, neg_r, neg_c = resolve_weights(corpus, config, weights)
    W = state.W.astype(np.float64)
    V = state.V.astype(np.float64)
    om = config.omega0
    loss = 0.0

    if t1_mode == "perword":
        incid = np.zeros((n, m))
        np.add.at(incid, (corpus.word_lists.row_ids(), corpus.word_lists.values), 1.0)
        for i in range(n):
            for e in range(m):
                s = float(V[i] @ W[e])
                cnt = incid[i, e]
                if cnt > 0:
                    loss += pos_r[i] * cnt * (s - 1.0) ** 2
                else:
                    loss += om * neg_r[i] * s * s
    elif t1_mode == "encoded":
        q_ids, q_enc = _bow_rows(corpus, W)
        for i in range(n):
            for k, ell in enumerate(q_ids):
                s = float(V[i] @ q_enc[k])
                if ell == i:
                    loss += pos_r[i] * (s - 1.0) ** 2
                else:
                    loss += om * neg_r[i] * s * s

    if t2:
        if free_u:
            ctx_ids = np.arange(n)
            ctx = state.U.astype(np.float64)
        else:
            ctx_ids, ctx = _bow_rows(corpus, W)
        for i in range(n):
            ne = set(corpus.graph.neighbors[i].tolist())
            for k, ell in enumerate(ctx_ids):
                ell = int(ell)
                s = float(V[i] @ ctx[k])
                if ell in ne:
                    loss += pos_r[i] * pos_c[ell] * (s - 1.0) ** 2
                elif ell == i and config.exclude_self_negative:
                    continue
                else:
                    loss += om * neg_r[i] * neg_c[ell] * s * s

    loss += config.lam * (float(np.sum(W * W)) + float(np.sum(V * V)))
    if free_u:
        U = state.U.astype(np.float64)
        loss += config.lam * float(np.sum(U * U))
    return loss


def sl_loss_efficient(
    state: ModelState,
    corpus: Corpus,
    config: TrainConfig,
    weights: TrainingWeights | None = None,
    parts: dict | None = None,
) -> float:
    """Same value as the brute-force oracle, via Gramian accumulation.

    Cost is O((n + m) d^2 + nnz d): the all-pairs implicit sums collapse to
    traces of d x d second-moment products; positive pairs are then
    reclaimed term by term.
    """
    t1_mode, t2, free_u = task_modes(config)
    pos_r, pos_c, neg_r, neg_c = resolve_weights(corpus, config, weights)
    W = state.W.astype(np.float64)
    V = state.V.astype(np.float64)
    om = config.omega0
    Gv_neg = (V * neg_r[:, None]).T @ V
    loss_t1 = loss_t2 = 0.0

    if t1_mode == "perword":
        Gw = W.T @ W
        loss_t1 += om * float(np.sum(Gv_neg * Gw))
        incidence, mult = _distinct_incidence(corpus)
        src = incidence.row_ids()
        s = np.einsum("pd,pd->p", W[incidence.values], V[src])
        loss_t1 += float(np.sum(pos_r[src] * mult.values * (s - 1.0) ** 2))
        loss_t1 -= om * float(np.sum(neg_r[src] * s * s))
    elif t1_mode == "encoded":
        q_ids, q_enc = _bow_rows(corpus, W)
        Gq = q_enc.T @ q_enc
        loss_t1 += om * float(np.sum(Gv_neg * Gq))
        s = np.einsum("pd,pd->p", V[q_ids], q_enc)
        loss_t1 += float(np.sum(pos_r[q_ids] * (s - 1.0) ** 2 - om * neg_r[q_ids] * s * s))

    if t2:
        if free_u:
            ctx_ids = np.arange(corpus.n)
            ctx = state.U.astype(np.float64)
        else:
            ctx_ids, ctx = _bow_rows(corpus, W)
        ctx_slot = np.full(corpus.n, -1, dtype=np.int64)
        ctx_slot[ctx_ids] = np.arange(len(ctx_ids))
        Gu = (ctx * neg_c[ctx_ids][:, None]).T @ ctx
        loss_t2 += om * float(np.sum(Gv_neg * Gu))
        src, dst = corpus.graph.neighbors.row_ids(), corpus.graph.neighbors.values
        slot = ctx_slot[dst]
        keep = slot >= 0  # contexts without text (zsl_te) carry no edge term
        src, dst, slot = src[keep], dst[keep], slot[keep]
        s = np.einsum("pd,pd->p", V[src], ctx[slot])
        loss_t2 += float(np.sum(pos_r[src] * pos_c[dst] * (s - 1.0) ** 2))
        loss_t2 -= om * float(np.sum(neg_r[src] * neg_c[dst] * s * s))
        if config.exclude_self_negative:
            sel = ctx_ids[~_self_edges(corpus.graph)[ctx_ids]]
            if len(sel):
                s = np.einsum("pd,pd->p", V[sel], ctx[ctx_slot[sel]])
                loss_t2 -= om * float(np.sum(neg_r[sel] * neg_c[sel] * s * s))

    loss_reg = config.lam * (float(np.sum(W * W)) + float(np.sum(V * V)))
    if free_u:
        U = state.U.astype(np.float64)
        loss_reg += config.lam * float(np.sum(U * U))
    if parts is not None:
        parts.update(task1=loss_t1, task2=loss_t2, reg=loss_reg)
    return loss_t1 + loss_t2 + loss_reg


# ---------------------------------------------------------------------------
# Coordinate descent


class SLTrainer:
    """Sequential Gauss-Seidel coordinate descent over model blocks.

    Caches (Gramians, context encodings, weight vectors) are refreshed at
    each block pass; within a pass only the encoded-context cache changes
    and is updated incrementally. The trainer mutates ``state`` in place,
    storing solved rows as float32 while accumulating in float64.
    """

    def __init__(self, state: ModelState, corpus: Corpus, config: TrainConfig,
                 weights: TrainingWeights | None = None):
        config.validate()
        if state.kind != config.kind:
            raise ConfigError(f"state kind {state.kind!r} != config kind {config.kind!r}")
        self.state = state
        self.corpus = corpus
        self.config = config
        self.t1_mode, self.t2, self.free_u = task_modes(config)
        self.pos_r, self.pos_c, self.neg_r, self.neg_c = resolve_weights(corpus, config, weights)
        self.incidence, self.inc_mult = _distinct_incidence(corpus)
        self.word_items, order = self.incidence.transpose(corpus.m)
        self.word_mult = Rows(self.word_items.indptr, self.inc_mult.values[order])
        self.in_edges, _ = corpus.graph.neighbors.transpose(corpus.n)
        self.self_in_ne = _self_edges(corpus.graph)
        self.text_len = corpus.word_lists.lengths().astype(np.float64)
        self.refresh()

    # -- caches ------------------------------------------------------------

    def refresh(self) -> None:
        self.W64 = self.state.W.astype(np.float64)
        self.V64 = self.state.V.astype(np.float64)
        self.U64 = None if self.state.U is None else self.state.U.astype(np.float64)
        self.Gv_neg = (self.V64 * self.neg_r[:, None]).T @ self.V64
        d = self.config.d
        self.Gw = self.W64.T @ self.W64 if self.t1_mode == "perword" else None
        if self.t1_mode == "encoded" or (self.t2 and not self.free_u):
            self.enc_ids, self.enc = _bow_rows(self.corpus, self.W64)
        else:
            self.enc_ids = np.array([], dtype=np.int64)
            self.enc = np.zeros((0, d))
        self.enc_slot = np.full(self.corpus.n, -1, dtype=np.int64)
        self.enc_slot[self.enc_ids] = np.arange(len(self.enc_ids))
        self.Gq = self.enc.T @ self.enc if self.t1_mode == "encoded" else None
        if self.t2:
            if self.free_u:
                self.Gu = (self.U64 * self.neg_c[:, None]).T @ self.U64
            else:
                cw = self.neg_c[self.enc_ids]
                self.Gu = (self.enc * cw[:, None]).T @ self.enc
        else:
            self.Gu = None

    def _solve(self, A: np.ndarray, b: np.ndarray, block: str, row: int) -> np.ndarray:
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            warnings.warn(f"singular system at {block}[{row}]; adding 1e-10 jitter")
            try:
                x = np.linalg.solve(A + 1e-10 * np.eye(len(b)), b)
            except np.linalg.LinAlgError:
                # Jitter is below working precision when A is large and rank
                # deficient; fall back to the min-norm least-squares solution.
                x = np.linalg.lstsq(A, b, rcond=None)[0]
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite update at block {block}, row {row}")
        return x

    # -- row updates -------------------------------------------------------

    def update_row(self, block: str, row: int) -> np.ndarray:
        if block == "V":
            new = self._update_v(row)
        elif block == "U":
            if not self.free_u:
                raise ConfigError("no free context block for this kind")
            new = self._update_u(row)
        elif block == "W":
            new = self._update_w(row)
        else:
            raise ConfigError(f"unknown block {block!r}")
        return new

    def _update_v(self, i: int) -> np.ndarray:
        cfg = self.config
        d = cfg.d
        om = cfg.omega0
        A = cfg.lam * np.eye(d)
        b = np.zeros(d)
        if self.t1_mode == "perword":
            A += om * self.neg_r[i] * self.Gw
            idx, cnt = self.incidence[i], self.inc_mult[i]
            if len(idx):
                P = self.W64[idx]
                coef = self.pos_r[i] * cnt - om * self.neg_r[i]
                A += (P * coef[:, None]).T @ P
                b += (self.pos_r[i] * cnt) @ P
        elif self.t1_mode == "encoded":
            A += om * self.neg_r[i] * self.Gq
            k = self.enc_slot[i]
            if k >= 0:
                q = self.enc[k]
                A += (self.pos_r[i] - om * self.neg_r[i]) * np.outer(q, q)
                b += self.pos_r[i] * q
        if self.t2:
            A += om * self.neg_r[i] * self.Gu
            nb = self.corpus.graph.neighbors[i]
            if len(nb):
                if self.free_u:
                    cols, ctxm = nb, self.U64[nb]
                else:
                    slot = self.enc_slot[nb]
                    keep = slot >= 0
                    cols, ctxm = nb[keep], self.enc[slot[keep]]
                if len(cols):
                    cpos = self.pos_r[i] * self.pos_c[cols]
                    coef = cpos - om * self.neg_r[i] * self.neg_c[cols]
                    A += (ctxm * coef[:, None]).T @ ctxm
                    b += cpos @ ctxm
            if cfg.exclude_self_negative and not self.self_in_ne[i]:
                u = self._ctx_vec(i)
                if u is not None:
                    A -= om * self.neg_r[i] * self.neg_c[i] * np.outer(u, u)
        x = self._solve(A, b, "V", i)
        self.state.V[i] = x.astype(np.float32)
        self.V64[i] = self.state.V[i]
        return self.state.V[i].copy()

    def _ctx_vec(self, j: int) -> np.ndarray | None:
        if self.free_u:
            return self.U64[j]
        k = self.enc_slot[j]
        return None if k < 0 else self.enc[k]

    def _update_u(self, j: int) -> np.ndarray:
        cfg = self.config
        om = cfg.omega0
        A = cfg.lam * np.eye(cfg.d) + om * self.neg_c[j] * self.Gv_neg
        b = np.zeros(cfg.d)
        seeds = self.in_edges[j]
        if len(seeds):
            P = self.V64[seeds]
            coef = (self.pos_r[seeds] * self.pos_c[j]
                    - om * self.neg_r[seeds] * self.neg_c[j])
            A += (P * coef[:, None]).T @ P
            b += (self.pos_r[seeds] * self.pos_c[j]) @ P
        if cfg.exclude_self_negative and not self.self_in_ne[j]:
            A -= om * self.neg_r[j] * self.neg_c[j] * np.outer(self.V64[j], self.V64[j])
        x = self._solve(A, b, "U", j)
        self.state.U[j] = x.astype(np.float32)
        self.U64[j] = self.state.U[j]
        return self.state.U[j].copy()

    def _update_w(self, e: int) -> np.ndarray:
        cfg = self.config
        om = cfg.omega0
        d = cfg.d
        A = cfg.lam * np.eye(d)
        b = np.zeros(d)
        items, mult = self.word_items[e], self.word_mult[e]

        if self.t1_mode == "perword":
            # Implicit over every item, corrected at the incident ones.
            A += om * self.Gv_neg
            if len(items):
                P = self.V64[items]
                coef = self.pos_r[items] * mult - om * self.neg_r[items]
                A += (P * coef[:, None]).T @ P
                b += (self.pos_r[items] * mult) @ P
            x = self._solve(A, b, "W", e)
            old = self.W64[e].copy()
            self.state.W[e] = x.astype(np.float32)
            self.W64[e] = self.state.W[e]
            if self.Gw is not None:
                self.Gw += np.outer(self.W64[e], self.W64[e]) - np.outer(old, old)
            return self.state.W[e].copy()

        # Encoder-side word row: the word enters through BOW contexts.
        # Each context l containing the word contributes alpha_l = mult/k_l,
        # so its encoding splits as rest_l + alpha_l * w_e.
        slot = self.enc_slot[items]
        keep = slot >= 0
        ctx_items = items[keep]
        ks = slot[keep]
        alphas = mult[keep] / self.text_len[ctx_items]
        restM = self.enc[ks] - alphas[:, None] * self.W64[e]

        if self.t1_mode == "encoded":
            A += om * float(np.sum(alphas * alphas)) * self.Gv_neg
            if len(ctx_items):
                b -= om * self.Gv_neg @ (alphas @ restM)
                Vs = self.V64[ctx_items]
                beta = np.einsum("td,td->t", Vs, restM)
                cpos = self.pos_r[ctx_items]
                cneg = om * self.neg_r[ctx_items]
                coef = (cpos - cneg) * alphas * alphas
                A += (Vs * coef[:, None]).T @ Vs
                b += ((cpos * (1.0 - beta) + cneg * beta) * alphas) @ Vs
        else:  # zsl_te: task 2 with encoded contexts
            cneg_ctx = self.neg_c[ctx_items]
            A += om * float(np.sum(cneg_ctx * alphas * alphas)) * self.Gv_neg
            if len(ctx_items):
                b -= om * self.Gv_neg @ ((cneg_ctx * alphas) @ restM)
                # Seeds of every context item, gathered from the transposed graph.
                starts = self.in_edges.indptr[ctx_items]
                lens_in = self.in_edges.indptr[ctx_items + 1] - starts
                pslot = np.repeat(np.arange(len(ctx_items)), lens_in)
                if len(pslot):
                    skip = starts - (np.cumsum(lens_in) - lens_in)
                    seeds = self.in_edges.values[np.arange(len(pslot)) + skip[pslot]]
                    Vs = self.V64[seeds]
                    beta = np.einsum("pd,pd->p", Vs, restM[pslot])
                    a = alphas[pslot]
                    dst = ctx_items[pslot]
                    cpos = self.pos_r[seeds] * self.pos_c[dst]
                    cneg = om * self.neg_r[seeds] * self.neg_c[dst]
                    coef = (cpos - cneg) * a * a
                    A += (Vs * coef[:, None]).T @ Vs
                    b += ((cpos * (1.0 - beta) + cneg * beta) * a) @ Vs
                if cfg.exclude_self_negative:
                    sel = ~self.self_in_ne[ctx_items]
                    if np.any(sel):
                        ells = ctx_items[sel]
                        Vse = self.V64[ells]
                        beta = np.einsum("pd,pd->p", Vse, restM[sel])
                        a = alphas[sel]
                        cneg = om * self.neg_r[ells] * self.neg_c[ells]
                        A -= (Vse * (cneg * a * a)[:, None]).T @ Vse
                        b += (cneg * beta * a) @ Vse

        x = self._solve(A, b, "W", e)
        self.state.W[e] = x.astype(np.float32)
        self.W64[e] = self.state.W[e]
        if len(ctx_items):
            self.enc[ks] = restM + alphas[:, None] * self.W64[e]
        return self.state.W[e].copy()

    # -- sweeps ------------------------------------------------------------

    def sweep(self) -> None:
        """One full pass: V rows, then U rows (free contexts), then W rows."""
        self.refresh()
        for i in range(self.corpus.n):
            self._update_v(i)
        if self.free_u:
            self.refresh()
            for j in range(self.corpus.n):
                self._update_u(j)
        if self._w_has_terms():
            self.refresh()
            for e in range(self.corpus.m):
                self._update_w(e)
        self.state.sweep_count += 1

    def _w_has_terms(self) -> bool:
        return self.t1_mode is not None or not self.free_u

    def loss(self, parts: dict | None = None) -> float:
        return sl_loss_efficient(self.state, self.corpus, self.config,
                                 TrainingWeights(self.pos_r, self.pos_c)
                                 if self.config.use_weights else None,
                                 parts=parts)


def cd_update_row(state: ModelState, corpus: Corpus, config: TrainConfig,
                  block: str, row: int,
                  weights: TrainingWeights | None = None) -> np.ndarray:
    """Solve one row exactly against the current state (state is mutated)."""
    return SLTrainer(state, corpus, config, weights).update_row(block, row)


def cd_sweep(state: ModelState, corpus: Corpus, config: TrainConfig,
             weights: TrainingWeights | None = None) -> ModelState:
    SLTrainer(state, corpus, config, weights).sweep()
    return state


def train_sl_model(corpus: Corpus, config: TrainConfig,
                   state: ModelState | None = None) -> tuple[ModelState, list[dict]]:
    """Initialize (unless resuming) and run the configured number of sweeps.

    Returns the trained state and a per-sweep trace of loss components.
    """
    if state is None:
        state = init_model_state(config, corpus)
    trainer = SLTrainer(state, corpus, config)
    trace = []
    parts: dict = {}
    loss = trainer.loss(parts)
    trace.append({"sweep": state.sweep_count, "loss_total": loss, **{
        f"loss_{k}": v for k, v in parts.items()}, "seconds": 0.0})
    for _ in range(config.sweeps):
        t0 = time.perf_counter()
        trainer.sweep()
        parts = {}
        loss = trainer.loss(parts)
        trace.append({"sweep": state.sweep_count, "loss_total": loss, **{
            f"loss_{k}": v for k, v in parts.items()},
            "seconds": time.perf_counter() - t0})
    return state, trace
