"""Recall metrics against naive oracles; synthetic corpus generator."""
import numpy as np
import pytest

from tests.conftest import make_random_corpus
from zsretrieval.corpus import CorrelationGraph, Rows
from zsretrieval.errors import IngestError
from zsretrieval.evaluation import (
    LabeledSet,
    ensemble_recall_at_k,
    pooled_recall,
    recall_at_k,
    reconstruction_recall,
)
from zsretrieval.store import ZSL_TE, ModelState
from zsretrieval.synthetic import ClusterSpec, make_synthetic_transfer_corpus


def make_state(rng, n, m, d=3):
    W = rng.standard_normal((m, d)).astype(np.float32)
    V = rng.standard_normal((n, d)).astype(np.float32)
    return ModelState(ZSL_TE, d, W, V, None, seed=0)


def naive_topk(scores, k, exclude=()):
    order = sorted((i for i in range(len(scores)) if i not in exclude
                    and scores[i] > -np.inf),
                   key=lambda i: (-scores[i], i))
    return set(order[:k])


class TestReconstructionRecall:
    def test_perfect_embeddings_recall_one(self):
        # orthogonal one-hot items, each item's sole neighbor duplicated vector
        V = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.float32)
        graph = CorrelationGraph(Rows.from_lists([[1], [0], [3], [2]]),
                                 Rows.from_lists([[1]] * 4), 10)
        state = ModelState(ZSL_TE, 2, np.zeros((1, 2), dtype=np.float32), V, None, 0)
        rep = reconstruction_recall(state, graph, "cosine")
        assert rep.mean == 1.0

    def test_empty_rows_skipped(self, rng):
        state = make_state(rng, 4, 2)
        graph = CorrelationGraph(Rows.from_lists([[1], [], [0, 3], []]),
                                 Rows.from_lists([[1], [], [1, 1], []]), 10)
        rep = reconstruction_recall(state, graph)
        assert rep.skipped == 2
        assert len(rep.per_query) == 2

    def test_matches_naive_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            corpus = make_random_corpus(rng, n, 3)
            state = make_state(rng, n, 3)
            for mode in ("dot", "cosine"):
                rep = reconstruction_recall(state, corpus.graph, mode)
                expect = []
                V = state.V.astype(np.float64)
                norms = np.linalg.norm(V, axis=1)
                for i in range(n):
                    true = set(corpus.graph.neighbors[i].tolist())
                    if not true:
                        continue
                    if mode == "cosine":
                        scores = [V[j] @ V[i] / (norms[j] * norms[i])
                                  if norms[j] > 0 else -np.inf for j in range(n)]
                    else:
                        scores = [float(V[j] @ V[i]) for j in range(n)]
                    pred = naive_topk(scores, len(true), exclude={i})
                    expect.append(len(pred & true) / len(true))
                assert rep.per_query == expect
                assert rep.mean == (float(np.mean(expect)) if expect else 0.0)

    def test_seed_inclusion_flag(self):
        # self-loop neighbor: recall only reachable when the seed is scored
        V = np.array([[1, 0], [0, 1]], dtype=np.float32)
        graph = CorrelationGraph(Rows.from_lists([[0], []]),
                                 Rows.from_lists([[1], []]), 5)
        state = ModelState(ZSL_TE, 2, np.zeros((1, 2), dtype=np.float32), V, None, 0)
        assert reconstruction_recall(state, graph, exclude_seed=True).mean == 0.0
        assert reconstruction_recall(state, graph, exclude_seed=False).mean == 1.0


class TestPooledRecall:
    def test_hand_example(self):
        # S1={0,1}, S2={1,2}; query 1 ranks {0,2} first -> recall 0.5
        W = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        V = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 0.0]], dtype=np.float32)
        state = ModelState(ZSL_TE, 2, W, V, None, 0, score_mode="dot")
        labeled = LabeledSet([([0], {0, 1}), ([1], {1, 2})])
        rep = pooled_recall(state, labeled, "dot")
        assert rep.per_query[0] == 0.5

    def test_relevant_equals_pool_recall_one(self, rng):
        state = make_state(rng, 5, 4)
        labeled = LabeledSet([([0, 1], {0, 2, 4})])
        rep = pooled_recall(state, labeled, "dot")
        assert rep.mean == 1.0

    def test_unencodable_query_counted(self, rng):
        state = make_state(rng, 5, 4)
        labeled = LabeledSet([([], {0}), ([1], {0})])
        rep = pooled_recall(state, labeled, "dot")
        assert rep.skipped == 1 and len(rep.per_query) == 1

    def test_matches_naive_oracle(self, rng):
        for _ in range(25):
            n, m = int(rng.integers(3, 10)), int(rng.integers(2, 6))
            state = make_state(rng, n, m)
            queries = []
            for _ in range(int(rng.integers(1, 5))):
                words = rng.integers(0, m, size=int(rng.integers(1, 4))).tolist()
                rel = set(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                     replace=False).tolist())
                queries.append((words, rel))
            labeled = LabeledSet(queries)
            rep = pooled_recall(state, labeled, "dot")
            pool = sorted(labeled.pool)
            expect = []
            for words, rel in queries:
                q = state.W.astype(np.float64)[words].mean(axis=0)
                scores = [float(state.V[j].astype(np.float64) @ q) for j in pool]
                pred = {pool[i] for i in naive_topk(scores, len(rel))}
                expect.append(len(pred & rel) / len(rel))
            assert rep.per_query == expect


class TestRecallAtK:
    def test_argmax_hit_at_k1(self):
        W = np.array([[1.0, 0.0]], dtype=np.float32)
        V = np.array([[0.5, 0.0], [2.0, 0.0]], dtype=np.float32)
        state = ModelState(ZSL_TE, 2, W, V, None, 0)
        assert recall_at_k(state, [([0], 1)], 1, "dot").mean == 1.0

    def test_k_equals_n_recall_one(self, rng):
        state = make_state(rng, 6, 3)
        pairs = [([0], int(t)) for t in range(6)]
        assert recall_at_k(state, pairs, 6, "dot").mean == 1.0

    def test_monotone_in_k(self, rng):
        state = make_state(rng, 10, 4)
        pairs = [(rng.integers(0, 4, size=2).tolist(), int(rng.integers(0, 10)))
                 for _ in range(12)]
        vals = [recall_at_k(state, pairs, K, "dot").mean for K in range(1, 11)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_by_length_buckets(self, rng):
        state = make_state(rng, 6, 6)
        pairs = [([0], 0), ([1, 2], 1), ([0, 1, 2, 3, 4], 2)]
        rep = recall_at_k(state, pairs, 6, "dot", by_length=True)
        assert set(rep.extra["by_length"]) == {"1", "2", "5+"}
        rep2 = recall_at_k(state, pairs, 6, "dot", by_length=True,
                           unigram_lens=[1, 2, 3])
        assert set(rep2.extra["by_length"]) == {"1", "2", "3"}

    def test_matches_naive_oracle(self, rng):
        for _ in range(25):
            n, m = int(rng.integers(2, 10)), int(rng.integers(2, 5))
            state = make_state(rng, n, m)
            pairs = [(rng.integers(0, m, size=int(rng.integers(1, 4))).tolist(),
                      int(rng.integers(0, n))) for _ in range(8)]
            K = int(rng.integers(1, n + 1))
            rep = recall_at_k(state, pairs, K, "dot")
            expect = []
            for words, target in pairs:
                q = state.W.astype(np.float64)[words].mean(axis=0)
                scores = [float(state.V[j].astype(np.float64) @ q) for j in range(n)]
                expect.append(float(target in naive_topk(scores, K)))
            assert rep.per_query == expect


class TestSyntheticCorpus:
    def test_deterministic(self):
        spec = ClusterSpec(n_pairs=2, background_words=2)
        c1, h1 = make_synthetic_transfer_corpus(5, 24, spec)
        c2, h2 = make_synthetic_transfer_corpus(5, 24, spec)
        assert c1.item_ids == c2.item_ids and c1.vocab == c2.vocab
        assert h1 == h2
        for a, b in zip(c1.word_lists, c2.word_lists):
            assert a.tolist() == b.tolist()

    def test_paired_words_never_share_text(self):
        corpus, _ = make_synthetic_transfer_corpus(5, 24, ClusterSpec(n_pairs=3))
        for wl in corpus.word_lists:
            words = {corpus.vocab[k] for k in wl}
            syn = {w for w in words if w.startswith("syn")}
            pairs = {w.split("_")[0] for w in syn}
            assert len(pairs) == len(syn)

    def test_heldout_pairs_are_cross_cluster(self):
        corpus, heldout = make_synthetic_transfer_corpus(5, 24, ClusterSpec(n_pairs=2))
        assert heldout
        for words, target in heldout:
            qword = corpus.vocab[words[0]]
            cluster = qword.split("_")[1]
            assert f"_{cluster}_" not in corpus.item_ids[target]

    def test_colocated_pair_rejected(self):
        with pytest.raises(IngestError, match="co-located"):
            make_synthetic_transfer_corpus(
                5, 24, ClusterSpec(n_pairs=2),
                extra_text={"item_c0_p0_0": ["syn0_c1"]})

    def test_bad_spec_rejected(self):
        with pytest.raises(IngestError):
            make_synthetic_transfer_corpus(5, 24, ClusterSpec(n_pairs=0))
        with pytest.raises(IngestError):
            make_synthetic_transfer_corpus(5, 1, ClusterSpec(n_pairs=2))


class TestEnsembleRecall:
    def test_covers_union_of_single_model_hits(self, rng):
        a = make_state(rng, 8, 4)
        b = make_state(rng, 8, 4)
        pairs = [([0], i) for i in range(8)]
        ra = recall_at_k(a, pairs, 8, a.score_mode).mean
        re = ensemble_recall_at_k(a, b, pairs, 8).mean
        assert re >= 0.0 and ra == 1.0  # K = n saturates the primary alone

    def test_skip_only_when_both_fail(self, rng):
        a = make_state(rng, 4, 2)
        b = make_state(rng, 4, 2)
        pairs = [([], 0), ([1], 1)]
        rep = ensemble_recall_at_k(a, b, pairs, 2)
        assert rep.skipped == 1
