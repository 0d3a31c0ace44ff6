"""Offline recall metrics: graph reconstruction, pooled labeled sets, recall@K."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import CorrelationGraph
from .errors import ConfigError, check
from .retrieval import RankedList, ensemble_interleave, search
from .store import ModelState

MAX_LENGTH_BUCKET = 4  # longer queries share one "5+" bucket


@dataclass
class LabeledSet:
    """Human-labeled queries with their relevant item sets."""

    queries: list[tuple[list[int], set[int]]]  # (query word indices, relevant items)

    @property
    def pool(self) -> set[int]:
        out: set[int] = set()
        for _, rel in self.queries:
            out |= rel
        return out


@dataclass
class RecallReport:
    per_query: list[float]
    mean: float
    skipped: int = 0
    extra: dict = field(default_factory=dict)

    @classmethod
    def of(cls, values: list[float], skipped: int, extra: dict | None = None) -> "RecallReport":
        mean = float(np.mean(values)) if values else 0.0
        return cls(values, mean, skipped, extra or {})


def reconstruction_recall(state: ModelState, graph: CorrelationGraph,
                          mode: str = "cosine") -> RecallReport:
    """For each item with neighbors, retrieve top-k_i items by score with its
    own vector and measure the fraction of true neighbors recovered.

    Each item is a one-word query over V, ranked by ``search``. The seed is no
    neighbor: one extra item is ranked and the seed dropped. Items without
    other neighbors, and zero-norm items under cosine, are skipped.
    """
    n, nbrs, rows = graph.n, graph.neighbors, graph.neighbors.row_ids()
    lens = np.bincount(rows[nbrs.values != rows], minlength=n)
    seeds = np.flatnonzero(lens > 0)
    results = search([[i] for i in seeds], state.V, state.V, lens[seeds] + 1, mode)
    # Hits over flat (seed, item) keys. Rows are sorted, so the keys ascend
    # and a repeated neighbor is the key before it.
    keys = rows * n + nbrs.values
    true = keys[(nbrs.values != rows) & np.r_[True, keys[1:] != keys[:-1]]]
    size = np.bincount(true // n, minlength=n)  # len(true) per seed
    ranked = [(i, r.items) for i, r in zip(seeds.tolist(), results) if isinstance(r, RankedList)]
    scored = np.array([i for i, _ in ranked], dtype=np.int64)
    owner = np.repeat(scored, np.array([len(items) for _, items in ranked], dtype=np.int64))
    pred = np.concatenate([items for _, items in ranked] or [np.zeros(0, np.int64)])
    keep = pred != owner  # the seed is no neighbor
    owner, pred = owner[keep], pred[keep]
    top = np.arange(len(owner)) - np.searchsorted(owner, owner) < size[owner]  # its first size
    got = owner[top] * n + pred[top]
    at = np.minimum(np.searchsorted(true, got), len(true) - 1)  # a seed in got has true keys
    hits = np.bincount(owner[top][true[at] == got], minlength=n)
    return RecallReport.of((hits[scored] / size[scored]).tolist(), n - len(scored))


def pooled_recall(state: ModelState, labeled: LabeledSet, mode: str = "cosine") -> RecallReport:
    """Per-query recall of the relevant set within the pooled candidate set."""
    pool = np.array(sorted(labeled.pool), dtype=np.int64)
    results = search([words for words, _ in labeled.queries], state.W, state.V[pool],
                     [len(relevant) for _, relevant in labeled.queries], mode)
    recalls = []
    for (_, relevant), ranked in zip(labeled.queries, results):
        if isinstance(ranked, RankedList):
            predicted = set(pool[ranked.items].tolist())
            recalls.append(len(relevant & predicted) / len(relevant))
    return RecallReport.of(recalls, len(results) - len(recalls))


def _hits(pairs: list[tuple[list[int], int]], results: list, K: int) -> dict[int, float]:
    """Pair index -> 1.0 when its target is among the first K items ranked for
    it, else 0.0; a pair whose result is a skip reason is left out."""
    return {i: float(target in set(ranked.items[:K].tolist()))
            for i, ((_, target), ranked) in enumerate(zip(pairs, results))
            if isinstance(ranked, RankedList)}


def recall_at_k(
    state: ModelState,
    pairs: list[tuple[list[int], int]],
    K: int,
    mode: str = "dot",
    lengths: list[int] | None = None,
) -> RecallReport:
    """Fraction of pairs whose target appears in the query's top-K.

    ``lengths``, one per pair (the query's token count, as the CLI passes
    it), adds a split by query length under ``extra["by_length"]``.
    """
    if lengths is not None and len(lengths) != len(pairs):
        raise ConfigError(f"{len(lengths)} lengths for {len(pairs)} pairs")
    hits = _hits(pairs, search([words for words, _ in pairs], state.W, state.V, K, mode), K)
    extra = {}
    if lengths is not None:
        bucket_hits: dict[str, list[float]] = {}
        for idx, hit in hits.items():
            n = lengths[idx]
            bucket = str(n) if n <= MAX_LENGTH_BUCKET else f"{MAX_LENGTH_BUCKET + 1}+"
            bucket_hits.setdefault(bucket, []).append(hit)
        extra["by_length"] = {b: float(np.mean(v)) for b, v in sorted(bucket_hits.items())}
    return RecallReport.of(list(hits.values()), len(pairs) - len(hits), extra)


def ensemble_recall_at_k(
    primary: ModelState,
    secondary: ModelState,
    pairs: list[tuple[list[int], int]],
    K: int,
    head_len: int | None = None,
) -> RecallReport:
    """recall@K of the interleaved retrieval of two models.

    Each query is retrieved from both models (with each model's own score
    mode), the lists are interleaved with the given head length (default
    K // 2), and the hit test uses the first K merged entries. A query is
    skipped only when neither model can score it. ``extra`` holds each
    model's own recall@K report, "primary" and "secondary", from the same runs.
    """
    if head_len is None:
        head_len = K // 2
    check(head_len=head_len)  # before ranking: a query only one model scores never reads it
    words = [w for w, _ in pairs]
    runs = [search(words, st.W, st.V, K, st.score_mode) for st in (primary, secondary)]
    merged = [(ensemble_interleave(a, b, head_len) if isinstance(b, RankedList) else a)
              if isinstance(a, RankedList) else b for a, b in zip(*runs)]

    def report(results: list, extra: dict | None = None) -> RecallReport:
        hits = _hits(pairs, results, K)
        return RecallReport.of(list(hits.values()), len(pairs) - len(hits), extra)

    return report(merged, {"primary": report(runs[0]), "secondary": report(runs[1])})
