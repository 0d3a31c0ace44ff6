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
from functools import cached_property

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
    """Same value as the brute-force oracle, via Gramian accumulation: the
    one-call form of ``SLTrainer.loss``."""
    return SLTrainer(state, corpus, config, weights)._loss(parts)  # a new trainer is refreshed


# ---------------------------------------------------------------------------
# Coordinate descent

# A chunk of rows holds at most this many float64 numbers in its stacked
# systems (rows x d x d) and in its gathered term rows (terms x d).
CHUNK_FLOATS = 1 << 17
SWEEP_STATS = ("seconds_V", "seconds_U", "seconds_W", "fallbacks_jitter", "fallbacks_lstsq")


def _segments(csr: Rows, take: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``csr.values`` of the entries of rows ``take``, row after
    row, and the offsets of each row's run in that list."""
    starts = csr.indptr[take]
    lens = csr.indptr[take + 1] - starts
    ptr = np.zeros(len(take) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], lens), ptr


def _owners(rows: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The row each gathered term belongs to."""
    return np.repeat(rows, ptr[1:] - ptr[:-1])


def _runs(ptr: np.ndarray):
    """(chunk row, start, stop) of every non-empty run."""
    return [(r, lo, hi) for r, (lo, hi) in enumerate(zip(ptr[:-1].tolist(), ptr[1:].tolist()))
            if lo < hi]


def _add_terms(A: np.ndarray, b: np.ndarray, P: np.ndarray, ptr: np.ndarray,
               wa: np.ndarray, wb: np.ndarray) -> None:
    """A[r] += (P_r * wa_r).T @ P_r and b[r] += wb_r @ P_r, where ``_r`` is
    row r's run ``ptr[r]:ptr[r + 1]``: one gemm and one gemv per row, the
    products a row solved on its own forms."""
    PW = P * wa[:, None]
    for r, lo, hi in _runs(ptr):
        A[r] += PW[lo:hi].T @ P[lo:hi]
        b[r] += wb[lo:hi] @ P[lo:hi]


def _outer(U: np.ndarray) -> np.ndarray:
    """Stacked outer products ``u u^T`` of the rows of U."""
    return U[:, :, None] * U[:, None, :]


def _level_schedule(word_items: Rows, n_items: int) -> list[np.ndarray]:
    """Levels of the encoder-side W pass. Words are taken in index order and
    ``level(e) = 1 + the last level given to a word on any item holding e``
    (0 when there is none).

    No two words of a level share an item, and every word comes after each
    lower-index word it shares an item with. A word's system reads the
    encoded contexts only through its own items, so solving level by level
    gives the sequential Gauss-Seidel pass bit for bit.
    """
    last = [-1] * n_items
    indptr, items = word_items.indptr.tolist(), word_items.values.tolist()
    level = np.empty(len(word_items), dtype=np.int64)
    for e in range(len(level)):
        its = items[indptr[e]:indptr[e + 1]]
        lv = 1 + max((last[i] for i in its), default=-1)
        level[e] = lv
        for i in its:
            last[i] = lv
    order = np.argsort(level, kind="stable")
    return np.split(order, np.cumsum(np.bincount(level))[:-1])


def _chunks(rows: np.ndarray, cost: np.ndarray, d: int):
    """Consecutive runs of ``rows`` whose systems and gathered terms
    (``cost`` term rows per row) fit in CHUNK_FLOATS; at least one row each."""
    max_rows = max(1, CHUNK_FLOATS // (d * d))
    max_terms = max(1, CHUNK_FLOATS // d)
    ends = np.cumsum(cost[rows])
    start = 0
    while start < len(rows):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + max_terms, side="right"))
        stop = min(max(stop, start + 1), start + max_rows)
        yield rows[start:stop]
        start = stop


class SLTrainer:
    """Exact coordinate descent over model blocks, Gauss-Seidel across blocks.

    Caches (Gramians, context rows, weight vectors) are refreshed at each
    block pass and by ``loss``, which reads the same caches. Rows of one
    level (``levels``) do not read one another, so a pass assembles and
    solves a level's rows in chunks; within a pass only the encoded-context
    cache changes, updated after each chunk of the encoder-side W pass (the
    per-word W pass leaves ``Gw`` stale: its systems read only ``Gv_neg``).
    The trainer mutates ``state`` in place, storing solved rows as float32
    while accumulating in float64.
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
        self.self_in_ne = _self_edges(corpus.graph)
        self.text_len = corpus.word_lists.lengths().astype(np.float64)
        self.fallbacks = {"jitter": 0, "lstsq": 0}
        self.ridge = config.lam * np.eye(config.d)
        self.refresh()

    # -- built on first use: only a pass reads these ------------------------

    @cached_property
    def _by_word(self) -> tuple[Rows, Rows]:
        """Per word: its items, ascending, and its multiplicity on each."""
        items, order = self.incidence.transpose(self.corpus.m)
        return items, Rows(items.indptr, self.inc_mult.values[order])

    word_items = property(lambda self: self._by_word[0])
    word_mult = property(lambda self: self._by_word[1])
    # Per item, the items that list it as a neighbor.
    in_edges = cached_property(lambda self: self.corpus.graph.neighbors.transpose(self.corpus.n)[0])

    @cached_property
    def levels(self) -> dict[str, list[np.ndarray]]:
        """Per block, the levels of its pass; encoder-side words couple through items."""
        every_item, words = [np.arange(self.corpus.n)], [np.arange(self.corpus.m)]
        if self.t1_mode != "perword":
            words = _level_schedule(self.word_items, self.corpus.n)
        return {"V": every_item, "U": every_item, "W": words}

    @cached_property
    def cost(self) -> dict[str, np.ndarray]:
        """Per block, the term rows each row's system gathers: a chunk's budget."""
        in_deg, words = self.in_edges.lengths(), self.word_items
        cost_w = words.lengths()
        if self.t1_mode is None:  # zsl_te word rows gather the seeds of their items
            cost_w = cost_w + np.bincount(words.row_ids(), weights=in_deg[words.values],
                                          minlength=self.corpus.m)
        return {"V": self.incidence.lengths() + self.corpus.graph.neighbors.lengths(),
                "U": in_deg, "W": cost_w}

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
        # Task-2 context rows: item ctx_ids[k] has row ctx[k], and
        # ctx_slot[i] is item i's k (-1 for an item without a context row).
        if self.free_u:
            every_item = np.arange(self.corpus.n)
            self.ctx_ids, self.ctx, self.ctx_slot = every_item, self.U64, every_item
        else:
            self.ctx_ids, self.ctx, self.ctx_slot = self.enc_ids, self.enc, self.enc_slot
        self.Gu = None
        if self.t2:
            self.Gu = (self.ctx * self.neg_c[self.ctx_ids][:, None]).T @ self.ctx

    def _solve(self, A: np.ndarray, b: np.ndarray, block: str, row: int) -> np.ndarray:
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            warnings.warn(f"singular system at {block}[{row}]; adding 1e-10 jitter")
            try:
                x = np.linalg.solve(A + 1e-10 * np.eye(len(b)), b)
                self.fallbacks["jitter"] += 1
            except np.linalg.LinAlgError:
                # Jitter is below working precision when A is large and rank
                # deficient; fall back to the min-norm least-squares solution.
                x = np.linalg.lstsq(A, b, rcond=None)[0]
                self.fallbacks["lstsq"] += 1
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite update at block {block}, row {row}")
        return x

    def _solve_rows(self, A: np.ndarray, b: np.ndarray, block: str,
                    rows: np.ndarray) -> np.ndarray:
        """Solve a chunk's systems together; a chunk with a singular or
        non-finite system is solved again row by row through ``_solve``."""
        try:
            x = np.linalg.solve(A, b[:, :, None])[:, :, 0]
            if np.isfinite(x).all():
                return x
        except np.linalg.LinAlgError:
            pass
        return np.stack([self._solve(A[r], b[r], block, int(row)) for r, row in enumerate(rows)])

    # -- row updates -------------------------------------------------------

    def update_row(self, block: str, row: int) -> np.ndarray:
        if block == "U" and not self.free_u:
            raise ConfigError("no free context block for this kind")
        if block not in ("V", "U", "W"):
            raise ConfigError(f"unknown block {block!r}")
        self._pass(block, [np.array([row], dtype=np.int64)])
        return getattr(self.state, block)[row].copy()

    def _pass(self, block: str, levels: list[np.ndarray]) -> None:
        """Solve the rows of ``block`` level by level, in chunks: gather each
        row's terms, assemble the chunk's systems, solve them in one batch
        and write the rows back. Rows of one level must not read one another."""
        system = {"V": self._system_v, "U": self._system_u, "W": self._system_w}[block]
        out = getattr(self.state, block)
        out64 = {"V": self.V64, "U": self.U64, "W": self.W64}[block]
        for level in levels:
            for rows in _chunks(level, self.cost[block], self.config.d):
                A, b, written = system(rows)
                out[rows] = self._solve_rows(A, b, block, rows).astype(np.float32)
                out64[rows] = out[rows]
                if written is not None:
                    written()

    def _start(self, scale: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Systems ``lam I + scale[r] G`` and zero right-hand sides."""
        A = scale[:, None, None] * G
        A += self.ridge
        return A, np.zeros((len(scale), self.config.d))

    def _system_v(self, rows: np.ndarray):
        om = self.config.omega0
        scale = om * self.neg_r[rows]
        first = {"perword": self.Gw, "encoded": self.Gq, None: self.Gu}[self.t1_mode]
        A, b = self._start(scale, first)
        if self.t1_mode == "perword":
            pos, ptr = _segments(self.incidence, rows)
            rid = _owners(rows, ptr)
            wpos = self.pos_r[rid] * self.inc_mult.values[pos]
            _add_terms(A, b, self.W64[self.incidence.values[pos]], ptr,
                       wpos - om * self.neg_r[rid], wpos)
        elif self.t1_mode == "encoded":
            k = self.enc_slot[rows]
            has = k >= 0
            ids, q = rows[has], self.enc[k[has]]
            A[has] += (self.pos_r[ids] - om * self.neg_r[ids])[:, None, None] * _outer(q)
            b[has] += self.pos_r[ids][:, None] * q
        if self.t2:
            if self.t1_mode is not None:
                A += scale[:, None, None] * self.Gu
            pos, ptr = _segments(self.corpus.graph.neighbors, rows)
            cols = self.corpus.graph.neighbors.values[pos]
            slot = self.ctx_slot[cols]
            keep = slot >= 0  # contexts without text carry no edge term
            ptr = np.concatenate(([0], np.cumsum(keep)))[ptr]
            cols, ctx = cols[keep], self.ctx[slot[keep]]
            rid = _owners(rows, ptr)
            cpos = self.pos_r[rid] * self.pos_c[cols]
            _add_terms(A, b, ctx, ptr, cpos - om * self.neg_r[rid] * self.neg_c[cols], cpos)
            if self.config.exclude_self_negative:
                sel = ~self.self_in_ne[rows] & (self.ctx_slot[rows] >= 0)
                ids = rows[sel]
                u = self.ctx[self.ctx_slot[ids]]
                A[sel] -= (om * self.neg_r[ids] * self.neg_c[ids])[:, None, None] * _outer(u)
        return A, b, None

    def _system_u(self, rows: np.ndarray):
        om = self.config.omega0
        A, b = self._start(om * self.neg_c[rows], self.Gv_neg)
        pos, ptr = _segments(self.in_edges, rows)
        seeds = self.in_edges.values[pos]
        rid = _owners(rows, ptr)
        cpos = self.pos_r[seeds] * self.pos_c[rid]
        _add_terms(A, b, self.V64[seeds], ptr,
                   cpos - om * self.neg_r[seeds] * self.neg_c[rid], cpos)
        if self.config.exclude_self_negative:
            sel = ~self.self_in_ne[rows]
            ids = rows[sel]
            cneg = om * self.neg_r[ids] * self.neg_c[ids]
            A[sel] -= cneg[:, None, None] * _outer(self.V64[ids])
        return A, b, None

    def _system_w(self, rows: np.ndarray):
        om = self.config.omega0
        pos, ptr = _segments(self.word_items, rows)
        items, mult = self.word_items.values[pos], self.word_mult.values[pos]

        if self.t1_mode == "perword":
            # Implicit over every item, corrected at the incident ones.
            A, b = self._start(np.full(len(rows), om), self.Gv_neg)
            wpos = self.pos_r[items] * mult
            _add_terms(A, b, self.V64[items], ptr, wpos - om * self.neg_r[items], wpos)
            return A, b, None

        # Encoder-side word row: the word enters through BOW contexts. Each
        # context l holding the word (every such item has text) contributes
        # alpha_l = mult/k_l, so its encoding splits as rest_l + alpha_l * w_e.
        ks = self.enc_slot[items]
        alphas = mult / self.text_len[items]
        w_of = _owners(rows, ptr)
        restM = self.enc[ks] - alphas[:, None] * self.W64[w_of]
        if self.t1_mode == "encoded":
            w_rest = alphas
            Vs = self.V64[items]
            beta = np.einsum("td,td->t", Vs, restM)
            cpos = self.pos_r[items]
            cneg = om * self.neg_r[items]
            a, tptr = alphas, ptr
        else:  # zsl_te: task 2 with encoded contexts
            w_rest = self.neg_c[items] * alphas
            # Seeds of every context item, gathered from the transposed graph.
            spos, sptr = _segments(self.in_edges, items)
            seeds = self.in_edges.values[spos]
            pslot = _owners(np.arange(len(items)), sptr)
            Vs = self.V64[seeds]
            beta = np.einsum("pd,pd->p", Vs, restM[pslot])
            a = alphas[pslot]
            dst = items[pslot]
            cpos = self.pos_r[seeds] * self.pos_c[dst]
            cneg = om * self.neg_r[seeds] * self.neg_c[dst]
            tptr = sptr[ptr]
        w_gram = w_rest * alphas
        gram = np.zeros(len(rows))
        b = np.zeros((len(rows), self.config.d))
        omG = om * self.Gv_neg
        for r, lo, hi in _runs(ptr):
            gram[r] = np.add.reduce(w_gram[lo:hi])
            b[r] -= omG @ (w_rest[lo:hi] @ restM[lo:hi])
        A, _ = self._start(om * gram, self.Gv_neg)
        _add_terms(A, b, Vs, tptr, (cpos - cneg) * a * a, (cpos * (1.0 - beta) + cneg * beta) * a)
        if self.t1_mode is None and self.config.exclude_self_negative:
            sel = ~self.self_in_ne[items]
            ells = items[sel]
            Vse = self.V64[ells]
            beta = np.einsum("pd,pd->p", Vse, restM[sel])
            a = alphas[sel]
            cneg = om * self.neg_r[ells] * self.neg_c[ells]
            _add_terms(A, b, Vse, np.concatenate(([0], np.cumsum(sel)))[ptr],
                       -(cneg * a * a), cneg * beta * a)

        def written() -> None:
            self.enc[ks] = restM + alphas[:, None] * self.W64[w_of]

        return A, b, written

    # -- sweeps ------------------------------------------------------------

    def sweep(self) -> dict:
        """One full pass: V rows, then U rows (free contexts), then W rows.

        Returns the seconds each block took and the solver fallbacks."""
        stats = dict.fromkeys(SWEEP_STATS, 0.0)
        before = dict(self.fallbacks)
        blocks = ["V"] + (["U"] if self.free_u else []) + (["W"] if self._w_has_terms() else [])
        levels = self.levels  # built on the first sweep, outside the block timings
        for block in blocks:
            t0 = time.perf_counter()
            self.refresh()
            self._pass(block, levels[block])
            stats[f"seconds_{block}"] = time.perf_counter() - t0
        for kind in self.fallbacks:
            stats[f"fallbacks_{kind}"] = self.fallbacks[kind] - before[kind]
        self.state.sweep_count += 1
        return stats

    def _w_has_terms(self) -> bool:
        return self.t1_mode is not None or not self.free_u

    def loss(self, parts: dict | None = None) -> float:
        """The regularized objective at the current state, from refreshed caches.

        Cost is O((n + m) d^2 + nnz d): the all-pairs implicit sums collapse to
        traces of d x d Gramian products; positive pairs are then reclaimed
        term by term. ``parts`` receives the task1, task2 and reg terms.
        """
        self.refresh()
        return self._loss(parts)

    def _loss(self, parts: dict | None) -> float:
        """``loss`` from the caches as they stand."""
        om = self.config.omega0
        W, V = self.W64, self.V64
        loss_t1 = loss_t2 = 0.0

        if self.t1_mode == "perword":
            loss_t1 += om * float(np.sum(self.Gv_neg * self.Gw))
            src = self.incidence.row_ids()
            s = np.einsum("pd,pd->p", W[self.incidence.values], V[src])
            loss_t1 += float(np.sum(self.pos_r[src] * self.inc_mult.values * (s - 1.0) ** 2))
            loss_t1 -= om * float(np.sum(self.neg_r[src] * s * s))
        elif self.t1_mode == "encoded":
            ids = self.enc_ids
            loss_t1 += om * float(np.sum(self.Gv_neg * self.Gq))
            s = np.einsum("pd,pd->p", V[ids], self.enc)
            loss_t1 += float(np.sum(self.pos_r[ids] * (s - 1.0) ** 2
                                    - om * self.neg_r[ids] * s * s))

        if self.t2:
            loss_t2 += om * float(np.sum(self.Gv_neg * self.Gu))
            src, dst = self.corpus.graph.neighbors.row_ids(), self.corpus.graph.neighbors.values
            slot = self.ctx_slot[dst]
            keep = slot >= 0  # contexts without text (zsl_te) carry no edge term
            src, dst, slot = src[keep], dst[keep], slot[keep]
            s = np.einsum("pd,pd->p", V[src], self.ctx[slot])
            loss_t2 += float(np.sum(self.pos_r[src] * self.pos_c[dst] * (s - 1.0) ** 2))
            loss_t2 -= om * float(np.sum(self.neg_r[src] * self.neg_c[dst] * s * s))
            if self.config.exclude_self_negative:
                sel = self.ctx_ids[~self.self_in_ne[self.ctx_ids]]
                if len(sel):
                    s = np.einsum("pd,pd->p", V[sel], self.ctx[self.ctx_slot[sel]])
                    loss_t2 -= om * float(np.sum(self.neg_r[sel] * self.neg_c[sel] * s * s))

        loss_reg = self.config.lam * (float(np.sum(W * W)) + float(np.sum(V * V)))
        if self.free_u:
            loss_reg += self.config.lam * float(np.sum(self.U64 * self.U64))
        if parts is not None:
            parts.update(task1=loss_t1, task2=loss_t2, reg=loss_reg)
        return loss_t1 + loss_t2 + loss_reg


def train_sl_model(corpus: Corpus, config: TrainConfig,
                   state: ModelState | None = None) -> tuple[ModelState, list[dict]]:
    """Initialize (unless resuming) and run the configured number of sweeps.

    Returns the trained state, which carries ``config.objective()``, and a
    per-sweep trace of loss components, seconds per block and solver
    fallbacks.
    """
    if state is None:
        state = init_model_state(config, corpus)
    trainer = SLTrainer(state, corpus, config)
    trace = []
    parts: dict = {}
    loss = trainer.loss(parts)
    trace.append({"sweep": state.sweep_count, "loss_total": loss, **{
        f"loss_{k}": v for k, v in parts.items()}, "seconds": 0.0,
        **dict.fromkeys(SWEEP_STATS, 0)})
    for _ in range(config.sweeps):
        t0 = time.perf_counter()
        stats = trainer.sweep()
        parts = {}
        loss = trainer.loss(parts)
        trace.append({"sweep": state.sweep_count, "loss_total": loss, **{
            f"loss_{k}": v for k, v in parts.items()},
            "seconds": time.perf_counter() - t0, **stats})
    state.objective = config.objective()
    return state, trace
