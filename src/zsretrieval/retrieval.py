"""Exact top-K retrieval over item vectors, plus list interleaving."""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .corpus import Rows
from .encoder import _unencodable, encode_rows
from .errors import ConfigError, ScoreError, check

BLOCK_ROWS = 256  # query rows scored by one matrix product
_SCALE_ROWS = 16  # score rows divided by one outer product of norms


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


def _topk(S: np.ndarray, k: int | np.ndarray) -> list[np.ndarray]:
    """The one ranking kernel: each row's first k candidates (k an int >= 1
    or one per row) by (score desc, index asc); -inf and NaN are not
    candidates. Partitions at the k-th score and sorts only what is above."""
    out = []
    for row, kk in zip(S, np.broadcast_to(k, len(S))):
        kk = min(int(kk), row.size)
        kth = -np.partition(-row, kk - 1)[kk - 1]
        cand = np.flatnonzero(row >= kth if kth > -np.inf else row > -np.inf)
        out.append(cand[np.lexsort((cand, -row[cand]))[:kk]])  # last key is primary
    return out


@dataclass(frozen=True)
class _Prepared:
    """What every scan of an item block reads: V as float64 and, under
    cosine, the divisor norms (1.0 for a zero-norm item) and the zero-norm
    item indices."""

    V64: np.ndarray
    divisor: np.ndarray | None = None
    dead: np.ndarray | None = None


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
    """The prepared form of V under ``mode``. It is built once and kept for
    as long as V lives when V cannot change, and built per call otherwise."""
    key, memo = (id(V), mode), _immutable(V)
    if memo and key in _PREPARED:
        return _PREPARED[key]
    V64 = V.astype(np.float64)
    if mode == "cosine":
        norms = np.linalg.norm(V64, axis=1)
        live = norms > 0.0
        prepared = _Prepared(V64, np.where(live, norms, 1.0), np.flatnonzero(~live))
    else:
        prepared = _Prepared(V64)
    if memo:
        _PREPARED[key] = prepared
        weakref.finalize(V, _PREPARED.pop, key, None)  # V's id may be reused once it is freed
    return prepared


def _rank(Q: np.ndarray, ks: np.ndarray, V: np.ndarray, mode: str) -> list[RankedList | str]:
    """Rank the items of V for each query row of Q, or say why the row cannot
    be scored: no items, or a zero norm under cosine. The scored rows are
    taken BLOCK_ROWS at a time against V's prepared form. Under cosine scores
    are divided by both norms; zero-norm items score -inf (not candidates)."""
    if mode not in ("dot", "cosine"):
        raise ScoreError(f"unknown score mode {mode!r}")
    if V.shape[0] == 0:
        return ["empty item matrix"] * len(Q)
    # Row by row as np.linalg.norm(q) computes it, bit for bit; norm(Q, axis=1) is not.
    q_norms = np.sqrt((Q[:, None, :] @ Q[:, :, None])[:, 0, 0])
    skip = (q_norms == 0.0) & (mode == "cosine")
    out: list = ["cosine undefined for zero-norm query" if s else None for s in skip]
    rows, ks = np.flatnonzero(~skip), np.asarray(ks)
    prep = _prepare(V, mode)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        S = Q[block] @ prep.V64.T
        if prep.divisor is not None:
            for lo in range(0, len(block), _SCALE_ROWS):
                S[lo:lo + _SCALE_ROWS] /= np.outer(q_norms[block[lo:lo + _SCALE_ROWS]],
                                                  prep.divisor)
            S[:, prep.dead] = -np.inf
        for i, row, items, k in zip(block, S, _topk(S, ks[block]), ks[block].tolist()):
            out[i] = RankedList(items, row[items], k, mode)
        del S, row  # free this block (row is a view of it) before the next one is scored
    return out


def retrieve_topk(q: np.ndarray, V: np.ndarray, k: int, mode: str = "dot") -> RankedList:
    """Full-scan top-k by score, ties broken by ascending item index. Zero-norm
    rows are skipped under cosine; with fewer than k candidates, all are
    returned and the result is short. Raises ScoreError when the query cannot
    be scored."""
    check(k=k)
    ranked = _rank(np.asarray(q, dtype=np.float64)[None, :], [k], V, mode)[0]
    if isinstance(ranked, str):
        raise ScoreError(ranked)
    return ranked


def search(queries: list[list[int]], W: np.ndarray, V: np.ndarray,
           k: int | list[int], mode: str = "dot") -> list[RankedList | str]:
    """Top-k items for each word-index query, the block encoded at once by
    ``encode_rows`` over W; ``k`` is an int or one per query. Per query,
    returns its RankedList or why it was skipped: no in-vocabulary words, a
    word index out of range, no items, or zero norm under cosine. A k above
    the int64 range is read as its maximum: any k above the item count asks
    for every item, short."""
    k = np.asarray(k, dtype=object)
    if np.any(k < 1):
        raise ConfigError("k must be >= 1")
    k = np.asarray(np.minimum(k, np.iinfo(np.int64).max), dtype=np.int64)
    ks = np.broadcast_to(k, (len(queries),))
    out: list = [_unencodable(np.asarray(words, dtype=np.int64), W.shape[0])
                 for words in queries]
    rows = [i for i, reason in enumerate(out) if reason is None]
    _, Q = encode_rows(Rows.from_lists([queries[i] for i in rows]), W)
    for i, ranked in zip(rows, _rank(Q, ks[rows], V, mode)):
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
