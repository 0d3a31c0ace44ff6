"""Exact top-K retrieval over item vectors, plus list interleaving."""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .corpus import Rows, budget_rows, budget_runs
from .encoder import _unencodable, encode_rows
from .errors import ConfigError, ScoreError, check

SCORE_MODES = ("dot", "cosine")  # how a ranking scores, and a stored model's score_mode

# The float32 filter's error bound. Write s for a pair's float64 score as the
# re-rank computes it, f for its float32 score and u = 2^-24. Under cosine f
# is the float32 dot product of a = q/‖q‖ and b = v/‖v‖, each rounded to
# float32 from float64; under dot, of a = q and b = v. Let A = ‖a‖ and
# B = max ‖b‖ over the items: 1 and 1 under cosine, ‖q‖ and max ‖v‖ under dot.
#  1. A rounding to float32 gives x(1 + δ) + η, |δ| ≤ u, |η| ≤ 2^-150 (η only
#     on underflow). So |â·b̂ - a·b| ≤ (2u + u²) Σ|a_j b_j|
#     + 2^-150 (1 + u)(‖a‖₁ + ‖b‖₁) + d 2^-300.
#  2. A float32 sum of the d products, in any order, with or without FMA,
#     puts each term through at most d roundings, and an addition that
#     underflows is exact: |f - â·b̂| ≤ γ Σ|â_j b̂_j| + d 2^-150, where
#     γ = du / (1 - du) ≤ 1.07du for d ≤ 2^20.
#  3. Σ|a_j b_j| ≤ AB (Cauchy-Schwarz) and ‖a‖₁ ≤ √d A ≤ (d + 1) A / 2.
#  4. s is a·b to (d + 5) 2^-53 AB: the float64 sum, quotients and norms. A
#     float64 norm is exact to (d + 2) 2^-53 once it is at least 2^-480, since
#     underflowed squares add at most d 2^-1075 to a sum of at least 2^-960;
#     under dot a smaller one only moves E's absolute term.
# So |f - s| ≤ E = (1.2d + 3) u AB + 2^-150 (d + 4)(A + B + 1) when d ≤ 2^20,
# every norm is finite, the cosine norms are at least 2^-480 (_TINY), and
# under dot A, B and AB are below 2^126 (_HUGE): then no cast to float32 and
# no float32 partial sum overflows.
#
# Split the items into G groups, item j into group j mod G. Let t be the
# k-th largest, over a row's groups, of each group's largest f (NaN aside),
# for the row's own k. k groups each hold an item of f ≥ t, so at least k
# items have f ≥ t, and t is itself some item's f. Those k items have
# s ≥ t - E, so the k-th largest s is at least t - E, and every item in the
# top k by s, ties included, has f ≥ t - 2E. The filter keeps each item of
# f ≥ t - 2ε, where ε = (d + 4)(4u AB + 2^-148 (A + B + 1)): 2ε - 2E exceeds
# the rounding of t - 2ε to float32, at most u |t - 2ε| + 2^-150. Where the
# conditions fail ε is inf, and where fewer than k groups hold an item with
# an f (a zero-norm item's is NaN) t is NaN: then every live item is a
# candidate. Any split keeps this exact; G = min(n, max(4K, 512)), K the
# largest k of a block of rows, keeps the groups that hold two of a row's
# best items few, so t stays close to the row's k-th largest f.
_U = 2.0 ** -24
_MAX_D = 1 << 20
_TINY, _HUGE = 2.0 ** -480, 2.0 ** 126


@dataclass
class RankedList:
    """Ordered retrieval result; scores non-increasing, items unique."""

    items: np.ndarray
    scores: np.ndarray
    k: int
    score_mode: str

    @property
    def short(self) -> bool:  # fewer than k candidates were available
        return len(self.items) < self.k

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(zip(self.items.tolist(), self.scores.tolist()))


def _topk(owners: np.ndarray, scores: np.ndarray, ks: list[int],
          counts: np.ndarray) -> list[np.ndarray]:
    """The one ranking kernel. ``owners`` (rising) and ``scores`` list the
    candidates of a block of rows, each row's items in rising index order,
    ``counts[i]`` of them row i's; per row, returns the positions of its
    first k candidates by (score desc, index asc). -inf and NaN are not
    candidates: sorted by negated score, they come last in their row."""
    order = np.lexsort((-scores, owners))  # by row, then score desc, then index asc
    scored = np.bincount(owners[scores > -np.inf], minlength=len(ks))
    starts = (np.cumsum(counts) - counts).tolist()
    return [order[lo:lo + min(k, c)] for lo, k, c in zip(starts, ks, scored.tolist())]


@dataclass(frozen=True)
class _Prepared:
    """What every scan of an item block reads: ``T``, the d x n float32
    filter block (each item's unit row under cosine, NaN for a zero-norm
    item; V itself under dot), the float64 item norms, the live items (all
    but the zero-norm ones under cosine) and B of the filter's error bound
    (1 under cosine, max ‖v‖ under dot), inf where the bound cannot hold."""

    T: np.ndarray
    norms: np.ndarray
    live: np.ndarray
    B: float


_PREPARED: dict[tuple[int, str], _Prepared] = {}  # (id(V), mode) of a block that cannot change


def _immutable(V: np.ndarray) -> bool:
    """True when V and every array it views are read-only and the memory
    under them is a ``bytes`` object, as for a loaded model block."""
    base = V
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return isinstance(base, bytes)


def _prepare(V: np.ndarray, mode: str) -> _Prepared:
    """The prepared form of V under ``mode``, built CHUNK_FLOATS at a time.
    It is built once and kept for as long as V lives when V cannot change,
    and built per call otherwise."""
    key, memo = (id(V), mode), _immutable(V)
    if memo and key in _PREPARED:
        return _PREPARED[key]
    n, d = V.shape
    T, norms = np.empty((d, n), dtype=np.float32), np.empty(n)
    step = budget_rows(d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, step):
            rows = V[lo:lo + step].astype(np.float64)
            norms[lo:lo + step] = np.linalg.norm(rows, axis=1)
            if mode == "cosine":
                rows /= norms[lo:lo + step, None]
                rows[~(norms[lo:lo + step] > 0.0)] = np.nan  # a zero-norm item is no candidate
            T[:, lo:lo + step] = rows.T
    if mode == "cosine":
        live = norms > 0.0
        B = 1.0 if np.all((norms[live] >= _TINY) & (norms[live] < np.inf)) else np.inf
    else:
        live, B = np.ones(n, dtype=bool), float(norms.max()) if n else 0.0
    prepared = _Prepared(T, norms, live, B if d <= _MAX_D and B < _HUGE else np.inf)
    if memo:
        _PREPARED[key] = prepared
        weakref.finalize(V, _PREPARED.pop, key, None)  # V's id may be reused once it is freed
    return prepared


def _rank(Q: np.ndarray, ks: np.ndarray, V: np.ndarray, mode: str) -> list[RankedList | str]:
    """Rank the items of V for each query row of Q, or say why the row cannot
    be scored: no items, or a zero norm under cosine. A block of rows within
    CHUNK_FLOATS is scored in float32 against V's prepared form; each row's
    candidates (see the bound above) are rescored in float64, each pair by
    the same operations, and ranked, in runs of rows whose candidates fit
    CHUNK_FLOATS. Under cosine a score is divided by both norms, and
    zero-norm items are never candidates."""
    if mode not in SCORE_MODES:
        raise ScoreError(f"unknown score mode {mode!r}")
    n, d = V.shape
    if n == 0:
        return ["empty item matrix"] * len(Q)
    cosine = mode == "cosine"
    # Row by row as np.linalg.norm(q) computes it, bit for bit; norm(Q, axis=1) is not.
    q_norms = np.sqrt((Q[:, None, :] @ Q[:, :, None])[:, 0, 0])
    skip = (q_norms == 0.0) & cosine
    out: list = ["cosine undefined for zero-norm query" if s else None for s in skip]
    rows, ks = np.flatnonzero(~skip), np.asarray(ks)
    prep = _prepare(V, mode)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if cosine:
            A = np.where((q_norms >= _TINY) & (q_norms < np.inf), 1.0, np.inf)
        else:
            A = np.where((q_norms < _HUGE) & (q_norms * prep.B < _HUGE), q_norms, np.inf)
        # 2ε = 2(d + 4)(4u AB + 2^-148 (A + B + 1)), linear in A
        margin = 2 * (d + 4) * (A * (4 * _U * prep.B + 2.0 ** -148) + 2.0 ** -148 * (prep.B + 1))
        step = budget_rows((n + 1) // 2)  # float32 score rows, n/2 float64 numbers wide
        pairs = budget_rows(d)
        kth = np.minimum(ks, n) - 1  # each row's k, at most n, as an index
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            kb = ks[block].tolist()
            K = min(max(kb), n)
            Qb = Q[block]
            negS = (-(Qb / q_norms[block, None] if cosine else Qb)).astype(np.float32) @ prep.T
            # Group j holds items j, j + G, j + 2G, ...; a row's -t is its k-th
            # smallest group minimum of -f, NaN (no f in the group) last. The
            # minima are partitioned and sorted in place.
            G = min(n, max(4 * K, 512))
            whole = n - n % G
            mins = np.fmin.reduce(negS[:, :whole].reshape(len(block), -1, G), axis=1)
            np.fmin(mins[:, :n - whole], negS[:, whole:], out=mins[:, :n - whole])
            mins.partition(K - 1, axis=1)
            mins[:, :K].sort(axis=1)
            lim = mins[np.arange(len(block)), kth[block]] + margin[block]
            del mins
            lim = lim.astype(np.float32)[:, None]  # -f <= lim: f >= t - 2ε
            keep = negS <= lim
            keep[~(lim[:, 0] < np.inf)] = prep.live  # ε inf, or fewer than k groups scored
            del negS  # free the score block before the rescoring
            # Runs of rows whose candidates fit the budget, a pair holding about
            # 8 numbers at once: its index, row, item, score and sort keys. A
            # whole row's count_nonzero is about three times faster than axis=1's.
            counts = np.fromiter(map(np.count_nonzero, keep), np.intp, len(keep))
            for lo, hi in budget_runs(counts, 8):
                run, Qr, kr = block[lo:hi], Qb[lo:hi], kb[lo:hi]
                owners, items = np.divmod(np.flatnonzero(keep[lo:hi]), n)
                scores = np.empty(len(items))
                for p in range(0, len(items), pairs):
                    np.einsum("pd,pd->p", V[items[p:p + pairs]].astype(np.float64, copy=False),
                              Qr[owners[p:p + pairs]], out=scores[p:p + pairs])
                if cosine:
                    scores /= q_norms[run][owners] * prep.norms[items]
                for i, k, top in zip(run.tolist(), kr, _topk(owners, scores, kr, counts[lo:hi])):
                    out[i] = RankedList(items[top], scores[top], k, mode)
    return out


def _ks(k, count: int) -> np.ndarray:
    """The k of each of ``count`` queries, from one k or one per query, by ``search``'s rule."""
    ks, out = np.asarray(k, dtype=object), np.empty(count, dtype=np.int64)
    if ks.shape not in ((), (count,)) or not all(isinstance(v, (int, np.integer)) and v >= 1
                                                  and not isinstance(v, bool) for v in ks.flat):
        raise ConfigError("k must be an integer >= 1, or a list of one per query")
    out[:] = np.minimum(ks, 2 ** 63 - 1)
    return out


def retrieve_topk(q: np.ndarray, V: np.ndarray, k: int, mode: str = "dot") -> RankedList:
    """Full-scan top-k by score, ties broken by ascending item index. Zero-norm
    rows are skipped under cosine; with fewer than k candidates, all are
    returned and the result is short. k is read as ``search`` reads it.
    Raises ScoreError when the query cannot be scored."""
    ranked = _rank(np.asarray(q, dtype=np.float64)[None, :], _ks(k, 1), V, mode)[0]
    if isinstance(ranked, str):
        raise ScoreError(ranked)
    return ranked


def search(queries: list[list[int]], W: np.ndarray, V: np.ndarray,
           k: int | list[int], mode: str = "dot") -> list[RankedList | str]:
    """Top-k items for each word-index query, the block encoded at once by
    ``encode_rows`` over W; ``k`` is an int or one per query. Per query,
    returns its RankedList or why it was skipped: no in-vocabulary words, a
    word index out of range, no items, or zero norm under cosine. A k is an
    integer >= 1, Python or numpy but not bool; one above the int64 range
    reads as its maximum: any k above the item count asks for every item."""
    ks = _ks(k, len(queries))
    words = Rows.from_lists(queries)
    out: list = _unencodable(words, W.shape[0])
    rows = np.flatnonzero([reason is None for reason in out])
    _, Q = encode_rows(words.take(rows)[0], W)
    for i, ranked in zip(rows.tolist(), _rank(Q, ks[rows], V, mode)):
        out[i] = ranked
    return out


def _take_unseen(entries, out: dict[int, float]) -> bool:
    """Move the next entry of ``entries`` whose item is not yet in ``out``
    into it; False when ``entries`` runs out first."""
    for item, score in entries:
        if item not in out:
            out[item] = score
            return True
    return False


def ensemble_interleave(primary: RankedList, secondary: RankedList,
                        head_len: int) -> RankedList:
    """Head of primary, then alternate secondary/primary, deduplicating.

    The first ``head_len`` primary entries are emitted verbatim; afterwards
    entries alternate starting with secondary. A duplicate is skipped within
    its own turn (the turn is not forfeited to the other list). Secondary
    contributes at most ``head_len`` entries; ``head_len == 0`` means no head
    and no cap (pure alternation).
    """
    check(head_len=head_len)
    out: dict[int, float] = {}  # item -> score, in emission order
    p_entries, s_entries = iter(primary), iter(secondary)
    for item, score in itertools.islice(p_entries, min(head_len, len(primary))):
        out.setdefault(item, score)
    s_left = head_len or len(secondary)
    while True:
        took_s = s_left > 0 and _take_unseen(s_entries, out)
        s_left -= took_s
        if not _take_unseen(p_entries, out) and not took_s:
            break
    return RankedList(np.array(list(out), dtype=np.int64),
                      np.array(list(out.values()), dtype=np.float64),
                      k=len(out), score_mode=primary.score_mode)
