"""Shared fixtures: random desk-scale corpora and model states."""
import numpy as np
import pytest

from zsretrieval.corpus import Corpus, CorrelationGraph, Rows


def make_random_corpus(rng: np.random.Generator, n: int, m: int,
                       max_text: int = 5, max_degree: int = 6,
                       max_neighbors: int = 10) -> Corpus:
    """Random corpus with possibly-empty texts and a random directed graph."""
    item_ids = [f"i{k}" for k in range(n)]
    vocab = [f"w{k}" for k in range(m)]
    word_lists = Rows.from_lists([
        np.sort(rng.integers(0, m, size=int(rng.integers(0, max_text + 1)))).astype(np.int64)
        for _ in range(n)
    ])
    neighbors, counts = [], []
    for _ in range(n):
        deg = int(rng.integers(0, min(n, max_degree) + 1))
        js = np.sort(rng.choice(n, size=deg, replace=False)).astype(np.int64)
        neighbors.append(js)
        counts.append(rng.integers(1, 4, size=deg).astype(np.int64))
    nbrs = Rows.from_lists(neighbors)
    graph = CorrelationGraph(nbrs, Rows(nbrs.indptr, np.concatenate(counts)), max_neighbors)
    return Corpus(item_ids, vocab, word_lists, graph, {})


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
