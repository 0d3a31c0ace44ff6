"""Weighted square-loss training with full negatives via coordinate descent.

The objective is a sum of tasks; the model kind picks them from
``store.TASKS``:

* ``stl``     -- task 1: items against their words (free W rows, or encoded).
* ``zsl_me``  -- task 1, plus task 2: items against their neighbors' free U rows.
* ``zsl_te``  -- task 2 only, its context rows encoded as the bag-of-words
                 mean of the item's text.

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
from functools import cached_property, partial

import numpy as np

from .corpus import Corpus, Rows, budget_rows, budget_runs, compute_training_weights
from .encoder import encode_rows
from .errors import ConfigError, NumericError, SizeGuardError
from .store import ModelState, TrainConfig, init_model_state

BRUTEFORCE_MAX_TERMS = 50_000


def task_modes(config: TrainConfig) -> tuple[str | None, bool, bool]:
    """Return (task1 mode or None, task2 active, context rows free)."""
    enc = {part: encoded for part, _, encoded in config.tasks()}
    t1 = None if "task1" not in enc else "encoded" if enc["task1"] else "perword"
    return t1, "task2" in enc, enc.get("task2") is False


def resolve_weights(corpus: Corpus, config: TrainConfig) -> tuple[np.ndarray, ...]:
    """Effective (pos_row, pos_col, neg_row, neg_col) item weight vectors."""
    ones = np.ones(corpus.n, dtype=np.float64)
    if not config.use_weights:
        return ones, ones.copy(), ones.copy(), ones.copy()
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


# ---------------------------------------------------------------------------
# Loss oracles


def sl_loss_bruteforce(
    state: ModelState,
    corpus: Corpus,
    config: TrainConfig,
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

    pos_r, pos_c, neg_r, neg_c = resolve_weights(corpus, config)
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
        q_ids, q_enc = encode_rows(corpus.word_lists, W)
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
            ctx_ids, ctx = encode_rows(corpus.word_lists, W)
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
    parts: dict | None = None,
) -> float:
    """Same value as the brute-force oracle, via Gramian accumulation: the
    one-call form of ``SLTrainer.loss``."""
    return SLTrainer(state, corpus, config).loss(parts)


# ---------------------------------------------------------------------------
# Coordinate descent

SWEEP_STATS = ("seconds_V", "seconds_U", "seconds_W", "fallbacks_lstsq", "rows_lowrank",
               "fallbacks_lowrank")

# A low-rank row's solution stands when its residual in the eigenbasis is at
# most this share of a bound on the terms it sums; else it is solved dense.
RESIDUAL_TOL = 1e-12


def _gather(take: np.ndarray, csr: Rows, *per_entry: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries of rows ``take`` of ``csr``, row after row: their values,
    the same entries of each ``per_entry`` array, and the offsets of each
    row's run in that list."""
    rows, at = csr.take(take)
    return (rows.values, *(x[at] for x in per_entry), rows.indptr)


def _owners(rows: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The row each gathered term belongs to."""
    return np.repeat(rows, ptr[1:] - ptr[:-1])


def _runs(ptr: np.ndarray, sub: np.ndarray | None = None):
    """(place in ``sub``, start, stop) of the non-empty run of each chunk
    row of ``sub`` (default: every chunk row)."""
    lo, hi = (ptr[:-1], ptr[1:]) if sub is None else (ptr[sub], ptr[sub + 1])
    return [(r, a, b) for r, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())) if a < b]


def _system_width(k: np.ndarray, d: int) -> np.ndarray:
    """The width of each row's system, from its term count k: k rounded up
    to two significant bits (1, 2, 3, 4, 6, 8, 12, ...), so a pass solves few
    widths, where that k x k Woodbury system costs fewer flops than
    factoring the d x d one (2k^2 d + 2k^3/3 < 2d^3/3); else d. A row's
    arrays have shapes set by its own k alone, so it gets the same bits in
    any chunk."""
    k = np.asarray(k, dtype=np.int64)
    step = 1 << np.maximum(np.frexp(k.astype(np.float64))[1] - 2, 0)
    width = -(-k // step) * step
    w = width.astype(np.float64)
    return np.where(3.0 * w * w * d + w ** 3 < float(d) ** 3, width, d)


@dataclass(eq=False)
class _Gramian:
    """A pass's d x d Gramian ``G`` and, on first use, its eigenbasis."""

    G: np.ndarray

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(eigenvalues, Q) with G = Q diag(eigenvalues) Q^T, or None where
        ``eigh`` fails or gives non-finite numbers."""
        with np.errstate(all="ignore"):
            try:
                vals, Q = np.linalg.eigh(self.G)
            except np.linalg.LinAlgError:
                return None
        return (vals, Q) if np.isfinite(vals).all() and np.isfinite(Q).all() else None


def _padded(parts: list, lo: int, hi: int, width: int, d: int) -> tuple[np.ndarray, ...]:
    """The terms ``(ptr, P, c, wb)`` of every side of chunk rows ``lo:hi``,
    each row's after one another and padded with zero terms to ``width``:
    arrays (rows, width, d), (rows, width) and (rows, width)."""
    count = hi - lo
    P, c, wb = np.zeros((count, width, d)), np.zeros((count, width)), np.zeros((count, width))
    filled = np.zeros(count, dtype=np.int64)
    for ptr, rows, cs, wbs in parts:
        n = ptr[lo + 1:hi + 1] - ptr[lo:hi]
        r = np.repeat(np.arange(count), n)
        slot = np.arange(len(r)) - np.repeat(ptr[lo:hi] - ptr[lo] - filled, n)
        span = slice(ptr[lo], ptr[hi])
        P[r, slot], c[r, slot], wb[r, slot] = rows[span], cs[span], wbs[span]
        filled += n
    return P, c, wb


def _solve_stacked(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked systems ``A[r] x = b[r]`` at once, and each alone
    only when that raises; a singular system gives NaN. A system gets the
    same bits alone as in any stack."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve_stacked(A[r:r + 1], b[r:r + 1]) for r in range(len(A))])


def solve_lowrank(basis: tuple[np.ndarray, np.ndarray], lam: float, scale: np.ndarray,
                  extra: np.ndarray, P: np.ndarray, c: np.ndarray,
                  wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``(lam I + scale[r] G + P_r^T diag(c_r) P_r) x = extra[r] + P_r^T wb_r``
    for each row r, with G = Q diag(vals) Q^T (``basis``), by Woodbury.

    In Q's basis the base is diagonal, D = lam + scale[r] vals, and with
    P~ = P Q and b' = Q^T b the row's system leaves a k x k one:
    ``(I + C P~ D^-1 P~^T) y = C P~ D^-1 b'``, then ``x = Q D^-1 (b' - P~^T y)``.
    Returns the rows x and whether each stands: its D is positive (at least
    d eps of its largest entry) and its residual in Q's basis,
    ``D x' + P~^T C P~ x' - b'``, is at most ``RESIDUAL_TOL`` of a bound on
    its terms. Every product is stacked by row, so a row gets the same bits
    in any batch of rows of its width.
    """
    vals, Q = basis
    with np.errstate(all="ignore"):
        D = lam + scale[:, None] * vals
        fit = D.min(axis=1) > D.max(axis=1) * (len(vals) * np.finfo(np.float64).eps)
        D[~fit] = 1.0
        Pt = P @ Q
        bq = (wb[:, None, :] @ Pt)[:, 0]
        bq += (extra[:, None, :] @ Q)[:, 0]
        F = Pt / D[:, None, :]
        M = F @ Pt.transpose(0, 2, 1)
        M *= c[:, :, None]
        M += np.eye(P.shape[1])
        y = _solve_stacked(M, c * (F @ bq[:, :, None])[:, :, 0])
        del F
        xq = (y[:, None, :] @ Pt)[:, 0]
        np.subtract(bq, xq, out=xq)
        xq /= D
        z = c * (Pt @ xq[:, :, None])[:, :, 0]
        residual = (z[:, None, :] @ Pt)[:, 0]
        residual -= bq
        D *= xq
        residual += D
        # a bound on each term the residual sums: |D x'|, |b'| and sum |z_j| |p~_j|
        size = np.abs(D, out=D).max(axis=1) + np.abs(bq, out=bq).max(axis=1) + np.einsum(
            "rk,rk->r", np.abs(z), np.sqrt(np.einsum("rkd,rkd->rk", Pt, Pt)))
        ok = fit & (np.abs(residual, out=residual).max(axis=1) <= RESIDUAL_TOL * size)
        del D, bq, residual  # before the last (rows, d) array
        return (xq[:, None, :] @ Q.T)[:, 0], ok


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


@dataclass(eq=False)
class _Task:
    """One weighted implicit factorization of the item rows V against context
    rows: each (item i, context c) pair is a negative of weight ``omega0 *
    neg_r[i] * neg_c[c]``, and the pairs of ``pos`` are corrected term by term
    from that weight (``pos_neg``) to their own (``pos_w``); a pair of weight 0
    is thereby no term at all. Context c's row is ``ctx[c]``, the state's
    block or, when ``encoded``, its float64 encodings; the trainer rebuilds
    those and the ``neg_c``-weighted Gramian ``G`` after each pass over ``block``.
    """

    name: str            # the loss part it fills
    block: str           # the block its context rows come from: "W" or "U"
    encoded: bool        # contexts are items, their rows the BOW means of W rows
    pos: Rows            # per item, its corrected contexts, ascending
    pos_w: np.ndarray    # the weight of each entry of ``pos``
    pos_neg: np.ndarray  # the negative weight of each entry of ``pos``
    neg_c: np.ndarray    # the negative weight of each context

    @cached_property
    def by_context(self) -> tuple[Rows, np.ndarray, np.ndarray]:
        """Per context: the items pairing with it ("seeds"), ascending, and both weights."""
        seeds, order = self.pos.transpose(len(self.neg_c))
        return seeds, self.pos_w[order], self.pos_neg[order]


class SLTrainer:
    """Exact coordinate descent over model blocks, Gauss-Seidel across blocks.

    The objective is the sum of ``tasks``. The state holds the one copy of
    each block, cast to float64 where its rows are gathered. The caches (the
    Gramians and the encoded context rows) match the state after set-up,
    after every ``sweep`` and after ``refresh``: a sweep rebuilds, after each
    block's pass, the caches that read that block, and ``loss`` reads them
    as they stand. Each pass's Gramian (``grams``) is built on the pass's
    first use after the Gramians it comes from, and its eigenbasis on the
    first chunk that holds a low-rank row.
    ``update_row`` solves one row against the caches as they stand and
    rebuilds none; an edit to the state made outside the trainer needs a
    ``refresh``. Rows of one level (``levels``) do not read one
    another, so a pass assembles and solves a level's rows in chunks; within
    a pass only an encoded task's context rows change, after each chunk of
    the W pass. The trainer mutates ``state`` in place, storing solved rows
    as float32 while accumulating in float64. ``counts`` tallies, under the
    count columns of ``SWEEP_STATS``, the rows solved low-rank and the fallbacks.
    """

    def __init__(self, state: ModelState, corpus: Corpus, config: TrainConfig):
        config.validate()
        if state.kind != config.kind:
            raise ConfigError(f"state kind {state.kind!r} != config kind {config.kind!r}")
        self.state = state
        self.corpus = corpus
        self.config = config
        self.pos_r, self.pos_c, self.neg_r, self.neg_c = resolve_weights(corpus, config)
        self.incidence, self.inc_mult = _distinct_incidence(corpus)
        self.text_len = corpus.word_lists.lengths().astype(np.float64)
        self.tasks = self._tasks()
        self.owner = {task.block: task for task in self.tasks}
        self.blocks = ["V"] + [block for block in ("U", "W") if block in self.owner]
        self.counts = {key: 0 for key in SWEEP_STATS if not key.startswith("seconds")}
        self.ridge = config.lam * np.eye(config.d)
        self.grams: dict[str, _Gramian] = {}
        self.refresh()

    def _tasks(self) -> list[_Task]:
        """The tasks of ``config.tasks()``. Task 1: items against their words'
        free W rows, or each item against its own BOW encoding. Task 2: items
        against their graph neighbors and, under ``exclude_self_negative``,
        against themselves with weight 0 where they are not their own neighbor,
        so that pair is no negative."""
        config, n, words, edges = self.config, self.corpus.n, self.incidence, self.corpus.graph
        items, src, dst = np.arange(n), edges.neighbors.row_ids(), edges.neighbors.values
        task1 = ((items, items, self.pos_r, np.ones(n)) if config.task1_encoded else
                 (words.row_ids(), words.values, self.pos_r[words.row_ids()] * self.inc_mult.values,
                  np.ones(self.corpus.m)))
        w = self.pos_r[src] * self.pos_c[dst]
        if config.exclude_self_negative:
            alone = np.setdiff1d(items, src[src == dst])
            at = np.searchsorted(src * n + dst, alone * n + alone)  # rows stay ascending
            src, dst, w = np.insert(src, at, alone), np.insert(dst, at, alone), np.insert(w, at, 0.0)
        pairs = {"task1": task1, "task2": (src, dst, w, self.neg_c)}
        return [self._task(part, block, encoded, *pairs[part])
                for part, block, encoded in config.tasks()]

    def _task(self, name: str, block: str, encoded: bool, src: np.ndarray, dst: np.ndarray,
              w: np.ndarray, neg_c: np.ndarray) -> _Task:
        """The task of the pairs (item ``src``, context ``dst``) of weight ``w``,
        sorted by item, then context. An encoded task's context without text
        is no context: its row is zero, and a pair naming it is no term."""
        keep = self.text_len[dst] > 0 if encoded else slice(None)
        src, dst = src[keep], dst[keep]
        return _Task(name, block, encoded, Rows.from_coo(src, dst, self.corpus.n), w[keep],
                     self.config.omega0 * self.neg_r[src] * neg_c[dst], neg_c)

    # -- built on first use: only a pass reads these ------------------------

    @cached_property
    def _by_word(self) -> tuple[Rows, Rows]:
        """Per word: its items, ascending, and its multiplicity on each."""
        items, order = self.incidence.transpose(self.corpus.m)
        return items, Rows(items.indptr, self.inc_mult.values[order])

    word_items = property(lambda self: self._by_word[0])
    word_mult = property(lambda self: self._by_word[1])

    @cached_property
    def levels(self) -> dict[str, list[np.ndarray]]:
        """Per block, the levels of its pass; an encoded task's words couple through items."""
        levels = {"V": [np.arange(self.corpus.n)]}
        for task in self.tasks:
            levels[task.block] = (_level_schedule(self.word_items, self.corpus.n) if task.encoded
                                  else [np.arange(len(task.neg_c))])
        return levels

    @cached_property
    def plan(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per block, each row's system width (``_system_width`` of its term
        count k) and the rows of d numbers its chunk holds for it: its
        gathered terms (for an encoded word, its items' seeds and its items)
        and, on the low-rank path, its padded terms and its own d numbers."""
        d, sizes = self.config.d, {"V": (sum(task.pos.lengths() for task in self.tasks),) * 2}
        for task in self.tasks:
            seeds = task.by_context[0].lengths()
            sizes[task.block] = seeds, seeds
            if task.encoded:  # a word row gathers its items and their seeds
                words = self.word_items
                seeds = np.bincount(words.row_ids(), weights=seeds[words.values],
                                    minlength=self.corpus.m).astype(np.int64)
                sizes[task.block] = seeds, seeds + words.lengths()
        plan = {}
        for block, (k, gathered) in sizes.items():
            width = _system_width(k, d)
            plan[block] = width, gathered + np.where(width < d, width + 1, 0)
        return plan

    # -- caches ------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild every cache from the state, after an edit made outside the trainer."""
        for block in self.blocks:
            self._recache(block)

    def _recache(self, block: str) -> None:
        """Rebuild the caches that read ``block``: ``Gv_neg`` for V, else the
        owning task's context rows and Gramian; and drop the pass Gramians
        built from them."""
        rows = getattr(self.state, block)
        if block == "V":
            self.Gv_neg = (rows * self.neg_r[:, None]).T @ rows.astype(np.float64)
            self.grams.pop("context", None)
            return
        self.grams.pop("V", None)
        task = self.owner[block]
        task.ctx, ids = rows, slice(None)
        if task.encoded:  # an item without text has a zero row, which G leaves out
            ids, rows = encode_rows(self.corpus.word_lists, rows)
            task.ctx = np.zeros((self.corpus.n, self.config.d))
            task.ctx[ids] = rows
        task.G = (rows * task.neg_c[ids][:, None]).T @ rows.astype(np.float64, copy=False)

    def _gram(self, block: str) -> _Gramian:
        """The Gramian every row of ``block``'s pass scales: the sum of the
        tasks' for V, ``Gv_neg`` for a context block."""
        key = "V" if block == "V" else "context"
        if key not in self.grams:
            self.grams[key] = _Gramian(self.Gv_neg if key == "context" else
                                       sum(task.G for task in self.tasks))
        return self.grams[key]

    def _rescue(self, A: np.ndarray, b: np.ndarray, block: str, row: int) -> np.ndarray:
        """The min-norm least-squares solution of a d x d system whose solve
        came back non-finite: a singular ``A``'s exact minimizer. Warns once
        it is finite; else raises NumericError, with no warning first."""
        x = np.full_like(b, np.nan)
        if np.isfinite(A).all() and np.isfinite(b).all():  # on inf, LAPACK prints to stdout
            try:
                x = np.linalg.lstsq(A, b, rcond=None)[0]
            except np.linalg.LinAlgError:  # its SVD did not converge
                pass
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite update at block {block}, row {row}")
        warnings.warn(f"singular system at {block}[{row}]; solved by least squares")
        self.counts["fallbacks_lstsq"] += 1
        return x

    # -- row updates -------------------------------------------------------

    def update_row(self, block: str, row: int) -> np.ndarray:
        if block not in self.blocks:
            raise ConfigError(f"no block {block!r} for kind {self.config.kind!r}")
        self._pass(block, [np.array([row], dtype=np.int64)])
        return getattr(self.state, block)[row].copy()

    def _pass(self, block: str, levels: list[np.ndarray]) -> None:
        """Solve the rows of ``block`` level by level, in chunks: gather each
        chunk's terms, solve its rows in batches and write them back. Rows of
        one level must not read one another.

        A row of width below d (``plan``) is solved in the eigenbasis of the
        pass's Gramian, the others as d x d systems. A level's rows are taken
        in order of that width, the d x d ones last, in chunks whose gathered
        terms and low-rank arrays fit CHUNK_FLOATS."""
        out = getattr(self.state, block)
        if not out.flags.writeable:
            raise ConfigError(f"block {block} of the state is read-only (a loaded model); "
                              "train state.copy() instead")
        # Item rows read every task from the item side, context rows their task
        # from the context side.
        task = self.owner.get(block)
        neg, sides = ((self.neg_r, [((t.pos, t.pos_w, t.pos_neg), t.ctx) for t in self.tasks])
                      if task is None else (task.neg_c, [(task.by_context, self.state.V)]))
        terms = (partial(self._terms_encoded, task) if task is not None and task.encoded
                 else partial(self._terms_free, neg, sides))
        gram, (width, cost) = self._gram(block), self.plan[block]
        for level in levels:
            rows = level[np.argsort(width[level], kind="stable")]
            for start, stop in budget_runs(cost[rows], self.config.d):
                chunk = rows[start:stop]
                self._solve_chunk(block, gram, terms(chunk), chunk, width[chunk])

    def _solve_chunk(self, block: str, gram: _Gramian, terms: tuple, rows: np.ndarray,
                     width: np.ndarray) -> None:
        """Solve a chunk's rows, ascending by the ``width`` of their systems,
        from their terms and write them to the block: each width below d at
        once by Woodbury, then as d x d systems the rest and every low-rank
        row that does not stand, in batches of at most CHUNK_FLOATS numbers.
        The pass's eigenbasis is taken on the first low-rank width; without
        one, every low-rank row is solved dense."""
        scale, extra, parts, written = terms
        out, d = getattr(self.state, block), self.config.d
        edges = [0, *(np.flatnonzero(np.diff(width)) + 1).tolist(), len(rows)]
        dense = [np.zeros(0, dtype=np.int64)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            w = int(width[lo])
            if w == d:
                dense.append(np.arange(lo, hi))
                continue
            ok = np.zeros(hi - lo, dtype=bool)
            if gram.basis is not None:
                x, ok = solve_lowrank(gram.basis, self.config.lam, scale[lo:hi], extra[lo:hi],
                                      *_padded(parts, lo, hi, w, d))
                out[rows[lo:hi][ok]] = x[ok]
            self.counts["rows_lowrank"] += int(ok.sum())
            self.counts["fallbacks_lowrank"] += int(len(ok) - ok.sum())
            dense.append(lo + np.flatnonzero(~ok))
        dense, step = np.concatenate(dense), budget_rows(d * d)
        for sub in (dense[lo:lo + step] for lo in range(0, len(dense), step)):
            A, b = self._assemble(gram.G, scale, extra, parts, sub)
            x = _solve_stacked(A, b)
            for r in np.flatnonzero(~np.isfinite(x).all(axis=1)):
                x[r] = self._rescue(A[r], b[r], block, int(rows[sub[r]]))
            out[rows[sub]] = x
        written()

    def _assemble(self, G: np.ndarray, scale: np.ndarray, extra: np.ndarray,
                  parts: list, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The d x d systems of chunk rows ``sub``: ``A[r] = lam I + scale[r] G
        + sum c p p^T`` and ``b[r] = extra[r] + sum wb p`` over the terms
        ``(ptr, P, c, wb)`` of each side, one gemm and one gemv per row and
        side, the products a row solved on its own forms."""
        A = np.repeat(self.ridge[None], len(sub), axis=0)
        A += scale[sub, None, None] * G
        b = extra[sub]
        for ptr, P, c, wb in parts:
            for r, lo, hi in _runs(ptr, sub):
                A[r] += (P[lo:hi] * c[lo:hi, None]).T @ P[lo:hi]
                b[r] += wb[lo:hi] @ P[lo:hi]
        return A, b

    def _terms_free(self, neg: np.ndarray, sides: list, rows: np.ndarray):
        """Free rows, item or context: per side ``(pairs, P)``, implicit over
        every row of the other block ``P`` through the pass's Gramian, scaled
        by the row's ``neg`` weight, and corrected at the row's ``pairs``
        from their negative weight to their own.

        Returns the chunk's terms: the Gramian's scale per row, the extra
        right-hand side (zero), per side ``(ptr, P, c, wb)`` (the offsets of
        each row's run, its term rows, and the weights they add to ``A`` and
        ``b``), and the callback to run once the rows are written."""
        parts = []
        for pairs, P in sides:
            others, w, neg_w, ptr = _gather(rows, *pairs)
            parts.append((ptr, P[others].astype(np.float64, copy=False), w - neg_w, w))
        return (self.config.omega0 * neg[rows], np.zeros((len(rows), self.config.d)), parts,
                lambda: None)

    def _terms_encoded(self, task: _Task, rows: np.ndarray):
        """Word rows of an encoded task: the word enters through the BOW
        contexts of its items. Each context l holding the word (every such
        item has text) takes alpha_l = mult/k_l of it, so its encoding splits
        as rest_l + alpha_l * w_e; the terms are those of l's seeds i, each
        with a = alpha_l and beta = v_i . rest_l: weights ``c = (w - neg) a^2``
        and ``wb = (w (1 - beta) + neg beta) a``. Returns what ``_terms_free``
        does; the callback re-encodes the items of the rows written."""
        om, W = self.config.omega0, self.state.W
        items, mult, ptr = _gather(rows, self.word_items, self.word_mult.values)
        alphas = mult / self.text_len[items]
        w_of = _owners(rows, ptr)
        restM = task.ctx[items] - alphas[:, None] * W[w_of].astype(np.float64)
        w_rest = task.neg_c[items] * alphas
        seeds, w, neg, sptr = _gather(items, *task.by_context)
        pslot = _owners(np.arange(len(items)), sptr)
        Vs = self.state.V[seeds].astype(np.float64)
        a = alphas[pslot]
        beta = np.einsum("pd,pd->p", Vs, restM[pslot])
        w_gram = w_rest * alphas
        gram = np.zeros(len(rows))
        extra = np.zeros((len(rows), self.config.d))
        omG = om * self.Gv_neg
        for r, lo, hi in _runs(ptr):
            gram[r] = np.add.reduce(w_gram[lo:hi])
            extra[r] -= omG @ (w_rest[lo:hi] @ restM[lo:hi])
        parts = [(sptr[ptr], Vs, (w - neg) * a * a, (w * (1.0 - beta) + neg * beta) * a)]

        def written() -> None:  # the W rows of ``rows`` now hold their solutions
            task.ctx[items] = restM + alphas[:, None] * W[w_of].astype(np.float64)

        return om * gram, extra, parts, written

    # -- sweeps ------------------------------------------------------------

    def sweep(self) -> dict:
        """One full pass: V rows, then the rows of each block a task owns (U, then W).

        After each block's pass its caches are rebuilt, so every pass and the
        next ``loss`` read caches that match the state. Returns the seconds
        each block took and the change of each of ``counts``."""
        stats = dict.fromkeys(SWEEP_STATS, 0.0)
        before = dict(self.counts)
        levels = self.levels  # built on the first sweep, outside the block timings
        for block in self.blocks:
            t0 = time.perf_counter()
            self._pass(block, levels[block])
            self._recache(block)
            stats[f"seconds_{block}"] = time.perf_counter() - t0
        stats.update({key: self.counts[key] - before[key] for key in before})
        self.state.sweep_count += 1
        return stats

    def loss(self, parts: dict | None = None) -> float:
        """The regularized objective, read from the caches: the state as of
        the trainer's set-up, its last ``sweep`` or its last ``refresh``.

        Cost is O((n + m) d^2 + nnz d): the all-pairs implicit sums collapse to
        traces of d x d Gramian products; positive pairs are then reclaimed
        term by term, scored in slices of at most CHUNK_FLOATS numbers.
        ``parts`` receives the task1, task2 and reg terms.
        """
        om, V = self.config.omega0, self.state.V
        step = budget_rows(self.config.d)
        tasks = {"task1": 0.0, "task2": 0.0}
        for task in self.tasks:
            items, contexts = task.pos.row_ids(), task.pos.values
            s = np.empty(len(contexts))
            for lo in range(0, len(s), step):
                hi = lo + step
                np.einsum("pd,pd->p", V[items[lo:hi]].astype(np.float64),
                          task.ctx[contexts[lo:hi]].astype(np.float64, copy=False), out=s[lo:hi])
            part = om * float(np.sum(self.Gv_neg * task.G))
            part += float(np.sum(task.pos_w * (s - 1.0) ** 2))
            part -= float(np.sum(task.pos_neg * s * s))
            tasks[task.name] = part
        w, v, *free = (float(np.sum(np.square(block, dtype=np.float64)))
                       for block in self.state.blocks.values())  # W, V, then U
        loss_reg = self.config.lam * (w + v)
        for u in free:  # each free context block
            loss_reg += self.config.lam * u
        if parts is not None:
            parts.update(tasks, reg=loss_reg)
        return tasks["task1"] + tasks["task2"] + loss_reg


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
