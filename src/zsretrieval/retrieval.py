"""Exact top-K retrieval over item vectors, plus list interleaving."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import encode_bow
from .errors import ConfigError, EncodeError, ScoreError

BLOCK_ROWS = 256  # query rows scored by one matrix product


@dataclass
class RankedList:
    """Ordered retrieval result; scores non-increasing, items unique."""

    items: np.ndarray
    scores: np.ndarray
    k: int
    score_mode: str
    short: bool = False  # fewer than k candidates were available

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(zip(self.items.tolist(), self.scores.tolist()))


def _query_norm(qv: np.ndarray, V: np.ndarray, mode: str) -> float:
    """The query's norm; raises ScoreError when the query cannot be scored."""
    if V.shape[0] == 0:
        raise ScoreError("empty item matrix")
    q_norm = np.linalg.norm(qv)
    if mode == "cosine" and q_norm == 0.0:
        raise ScoreError("cosine undefined for zero-norm query")
    return q_norm


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


def _rank(Q: np.ndarray, q_norms, ks, V: np.ndarray, mode: str,
          exclude: set[int] | None = None) -> list[RankedList]:
    """Rank the items of V for each query row of Q, scoring BLOCK_ROWS rows at
    a time against V as float64. Under cosine scores are divided by both
    norms; zero-norm and ``exclude``d items score -inf (not candidates)."""
    if mode not in ("dot", "cosine"):
        raise ScoreError(f"unknown score mode {mode!r}")
    V64 = V.astype(np.float64)
    norms = np.linalg.norm(V64, axis=1) if mode == "cosine" else None
    out = []
    for start in range(0, len(Q), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        S = Q[block] @ V64.T
        if norms is not None:
            live = norms > 0.0
            S /= np.outer(q_norms[block], np.where(live, norms, 1.0))
            S[:, ~live] = -np.inf
        if exclude:
            S[:, np.fromiter(exclude, dtype=np.int64)] = -np.inf
        out += [RankedList(items, row[items], int(k), mode, short=len(items) < k)
                for row, items, k in zip(S, _topk(S, ks[block]), ks[block])]
        del S  # free this block before the next one is scored
    return out


def retrieve_topk(
    q: np.ndarray,
    V: np.ndarray,
    k: int,
    mode: str = "dot",
    exclude: set[int] | None = None,
) -> RankedList:
    """Full-scan top-k by score, ties broken by ascending item index.

    Excluded items are never returned; zero-norm rows are skipped under
    cosine. When fewer than k candidates remain, all are returned and the
    result is flagged short.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    qv = np.asarray(q, dtype=np.float64)
    return _rank(qv[None, :], [_query_norm(qv, V, mode)], [k], V, mode, exclude)[0]


def search(queries: list[list[int]], W: np.ndarray, V: np.ndarray,
           k: int | list[int], mode: str = "dot") -> list[RankedList | str]:
    """Top-k items for each word-index query (``encode_bow`` over W); ``k`` is
    an int or one per query. Per query, returns its RankedList or why it was
    skipped: no in-vocabulary words, no items, or zero norm under cosine."""
    ks = np.broadcast_to(np.asarray(k, dtype=np.int64), (len(queries),))
    if np.any(ks < 1):
        raise ConfigError("k must be >= 1")
    out: list = [None] * len(queries)
    rows, vecs, q_norms = [], [], []
    for i, words in enumerate(queries):
        try:
            qv = encode_bow(words, W)
            q_norm = _query_norm(qv, V, mode)
        except (EncodeError, ScoreError) as exc:
            out[i] = str(exc)
            continue
        rows.append(i)
        vecs.append(qv)
        q_norms.append(q_norm)
    for i, ranked in zip(rows, _rank(np.array(vecs), q_norms, ks[rows], V, mode)):
        out[i] = ranked
    return out


def ensemble_interleave(primary: RankedList, secondary: RankedList,
                        head_len: int) -> RankedList:
    """Head of primary, then alternate secondary/primary, deduplicating.

    The first ``head_len`` primary entries are emitted verbatim; afterwards
    entries alternate starting with secondary. A duplicate is skipped within
    its own turn (the turn is not forfeited to the other list). Secondary
    contributes at most ``head_len`` entries; ``head_len == 0`` means no head
    and no cap (pure alternation).
    """
    if head_len < 0:
        raise ConfigError("head_len must be >= 0")
    out_items: list[int] = []
    out_scores: list[float] = []
    seen: set[int] = set()

    def emit(item: int, score: float) -> None:
        out_items.append(item)
        out_scores.append(score)
        seen.add(item)

    p_entries = list(primary)
    s_entries = list(secondary)
    pi = si = 0
    while pi < len(p_entries) and pi < head_len:
        item, score = p_entries[pi]
        pi += 1
        if item not in seen:
            emit(item, score)

    s_cap = head_len if head_len > 0 else None
    s_emitted = 0
    turn_secondary = True
    while pi < len(p_entries) or si < len(s_entries):
        if turn_secondary:
            if s_cap is not None and s_emitted >= s_cap:
                si = len(s_entries)
            while si < len(s_entries):
                item, score = s_entries[si]
                si += 1
                if item not in seen:
                    emit(item, score)
                    s_emitted += 1
                    break
        else:
            while pi < len(p_entries):
                item, score = p_entries[pi]
                pi += 1
                if item not in seen:
                    emit(item, score)
                    break
        turn_secondary = not turn_secondary

    return RankedList(np.array(out_items, dtype=np.int64),
                      np.array(out_scores, dtype=np.float64),
                      k=len(out_items), score_mode=primary.score_mode,
                      short=False)
