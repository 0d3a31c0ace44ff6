"""Synthetic semantic-transfer corpus for desk-scale experiments.

Words come in synonym pairs split across clusters: the two members never
share an item's text, so text co-occurrence alone cannot relate them. Items
of paired topics are linked across clusters in the correlation graph, which
is the only route from a cluster-0 query word to the cluster-1 items. The
held-out pairs are exactly those cross-cluster (query, item) relations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, CorrelationGraph, Rows
from .errors import IngestError


@dataclass
class ClusterSpec:
    n_pairs: int = 2
    n_clusters: int = 2
    background_words: int = 2  # per-cluster background vocabulary size
    background_repeats: int = 1  # background draws appended to each item
    text_repeats: int = 2  # topic word multiplicity per item
    within_cluster_edges: bool = True  # same-topic edges inside a cluster too
    max_neighbors: int = 250

    def validate(self) -> None:
        if self.n_pairs < 1 or self.n_clusters < 2:
            raise IngestError("need >= 1 synonym pair and >= 2 clusters")
        if self.text_repeats < 1:
            raise IngestError("text_repeats must be >= 1")


def make_synthetic_transfer_corpus(
    seed: int,
    n_items: int,
    spec: ClusterSpec,
    extra_text: Mapping[str, Sequence[str]] | None = None,
) -> tuple[Corpus, list[tuple[list[int], int]]]:
    """Build the corpus and the held-out cross-cluster (query, item) pairs.

    ``extra_text`` appends tokens to named items before validation; it exists
    so callers can extend item text, and a spec that co-locates both members
    of a synonym pair in one item is rejected.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    topics = spec.n_clusters * spec.n_pairs
    per_topic = n_items // topics
    if per_topic < 1:
        raise IngestError(f"n_items={n_items} too small for {topics} topics")

    pair_words = [[f"syn{p}_c{c}" for c in range(spec.n_clusters)]
                  for p in range(spec.n_pairs)]
    vocab: list[str] = [w for pair in pair_words for w in pair]
    vocab += [f"bg_c{c}_{b}" for c in range(spec.n_clusters)
              for b in range(spec.background_words)]
    vocab_index = {w: i for i, w in enumerate(vocab)}

    item_ids: list[str] = []
    texts: list[list[str]] = []
    topic_items: dict[tuple[int, int], list[int]] = {}
    for c in range(spec.n_clusters):
        for p in range(spec.n_pairs):
            members = []
            for t in range(per_topic):
                idx = len(item_ids)
                item_ids.append(f"item_c{c}_p{p}_{t}")
                words = [pair_words[p][c]] * spec.text_repeats
                for _ in range(spec.background_repeats if spec.background_words else 0):
                    b = int(rng.integers(spec.background_words))
                    words.append(f"bg_c{c}_{b}")
                texts.append(words)
                members.append(idx)
            topic_items[(c, p)] = members

    if extra_text:
        by_id = {iid: k for k, iid in enumerate(item_ids)}
        for iid, extra in extra_text.items():
            if iid not in by_id:
                raise IngestError(f"extra_text names unknown item {iid!r}")
            texts[by_id[iid]].extend(extra)
            for w in extra:
                if w not in vocab_index:
                    vocab_index[w] = len(vocab)
                    vocab.append(w)

    for words in texts:
        present = set(words)
        for pair in pair_words:
            if sum(1 for w in pair if w in present) > 1:
                raise IngestError(
                    f"paired words {pair} co-located in one item's text; "
                    "cross-cluster relevance would leak through text")

    word_lists = Rows.from_lists([[vocab_index[w] for w in words] for words in texts])

    rows: list[list[int]] = [[] for _ in item_ids]
    for (c, p), members in topic_items.items():
        partners = sorted(
            j for c2 in range(spec.n_clusters)
            if c2 != c or spec.within_cluster_edges
            for j in topic_items[(c2, p)])
        for i in members:
            rows[i] = [j for j in partners if j != i][:spec.max_neighbors]
    neighbors = Rows.from_lists(rows)
    counts = Rows(neighbors.indptr, np.ones(len(neighbors.values), dtype=np.int64))
    graph = CorrelationGraph(neighbors, counts, spec.max_neighbors)
    corpus = Corpus(item_ids, vocab, word_lists, graph,
                    {"synthetic": True, "per_topic": per_topic})

    heldout: list[tuple[list[int], int]] = []
    for p in range(spec.n_pairs):
        for c in range(spec.n_clusters):
            query = [vocab_index[pair_words[p][c]]]
            for c2 in range(spec.n_clusters):
                if c2 == c:
                    continue
                for j in topic_items[(c2, p)]:
                    heldout.append((query, j))
    return corpus, heldout
