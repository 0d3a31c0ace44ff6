"""Top-k retrieval semantics and list interleaving."""
import numpy as np
import pytest

from zsretrieval.encoder import encode_bow
from zsretrieval.errors import ConfigError, EncodeError, ScoreError
from zsretrieval.retrieval import (
    BLOCK_ROWS,
    RankedList,
    ensemble_interleave,
    retrieve_topk,
    search,
)


def ranked(items, scores=None):
    items = np.array(items, dtype=np.int64)
    if scores is None:
        scores = -np.arange(len(items), dtype=np.float64)
    return RankedList(items, np.asarray(scores, dtype=np.float64),
                      k=len(items), score_mode="dot")


def small_ints(rng, shape):
    """Integer entries in [-2, 2]: exact scores, many exact ties, zero rows."""
    return rng.integers(-2, 3, size=shape).astype(np.float32)


def sort_all_oracle(q, V, mode, exclude=()):
    scored = []
    for i in range(len(V)):
        if i in exclude:
            continue
        v = V[i].astype(np.float64)
        if mode == "cosine":
            nv = np.linalg.norm(v)
            if nv == 0.0:
                continue
            s = float(v @ q) / (nv * np.linalg.norm(q))
        else:
            s = float(v @ q)
        scored.append((-s, i))
    scored.sort()
    return [i for _, i in scored]


class TestRetrieveTopK:
    def test_tie_broken_by_index(self):
        V = np.array([[0.9], [0.1], [0.9]], dtype=np.float32)
        out = retrieve_topk(np.array([1.0]), V, 2, "dot")
        assert out.items.tolist() == [0, 2]
        assert out.scores.tolist() == pytest.approx([0.9, 0.9])

    def test_exclusion_removes_best(self):
        V = np.array([[0.9], [0.1], [0.5]], dtype=np.float32)
        out = retrieve_topk(np.array([1.0]), V, 2, "dot", exclude={0})
        assert out.items.tolist() == [2, 1]

    def test_short_flag_when_k_exceeds_candidates(self):
        V = np.array([[1.0], [2.0]], dtype=np.float32)
        out = retrieve_topk(np.array([1.0]), V, 5, "dot", exclude={1})
        assert out.items.tolist() == [0]
        assert out.short

    def test_zero_norm_rows_skipped_under_cosine(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        out = retrieve_topk(np.array([1.0, 0.0]), V, 2, "cosine")
        assert out.items.tolist() == [1]
        assert out.short

    def test_zero_query_cosine_rejected(self):
        with pytest.raises(ScoreError):
            retrieve_topk(np.zeros(2), np.ones((3, 2), dtype=np.float32), 1, "cosine")

    def test_bad_k_and_mode(self):
        V = np.ones((2, 2), dtype=np.float32)
        with pytest.raises(ConfigError):
            retrieve_topk(np.ones(2), V, 0, "dot")
        with pytest.raises(ScoreError):
            retrieve_topk(np.ones(2), V, 1, "euclid")

    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_matches_sort_all_oracle(self, mode, rng):
        for trial in range(120):
            n, d = int(rng.integers(1, 15)), int(rng.integers(1, 5))
            if trial % 2:
                V = rng.standard_normal((n, d)).astype(np.float32)
                q = rng.standard_normal(d)
            else:
                V = small_ints(rng, (n, d))
                q = small_ints(rng, d).astype(np.float64)
                q[0] = q[0] or 1.0  # keep the query scorable under cosine
            exclude = set(rng.choice(n, size=int(rng.integers(0, n)), replace=False).tolist())
            k = int(rng.integers(1, n + 3))  # may exceed the candidates
            out = retrieve_topk(q, V, k, mode, exclude)
            expect = sort_all_oracle(q, V, mode, exclude)
            assert out.items.tolist() == expect[:k]
            assert out.short == (len(expect) < k)


class TestSearch:
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_matches_per_query_retrieval(self, mode, rng):
        n, m, d = 40, 30, 3
        V = small_ints(rng, (n, d))
        V[5:10] = V[0]  # duplicate items
        V[10:13] = 0.0  # zero-norm items
        W = small_ints(rng, (m, d))
        W[0] = 0.0  # a zero-norm query under cosine
        # 1, 2 or 4 words: the mean stays exact, so exact ties stay ties.
        queries = [rng.integers(1, m, size=int(rng.choice([1, 2, 4]))).tolist()
                   for _ in range(2 * BLOCK_ROWS + 50)]
        queries[BLOCK_ROWS + 3] = queries[3]  # one query in two blocks
        queries[7] = []  # skipped in the middle of the first block
        queries[BLOCK_ROWS + 9] = [0, 0]
        ks = rng.integers(1, n + 5, size=len(queries)).tolist()
        ks[BLOCK_ROWS + 3] = ks[3]
        results = search(queries, W, V, ks, mode)
        assert len(results) == len(queries)
        for words, k, got in zip(queries, ks, results):
            try:
                q = encode_bow(words, W)
                want = retrieve_topk(q, V, k, mode)
            except (EncodeError, ScoreError) as exc:
                assert got == str(exc)
                continue
            assert got.items.tolist() == want.items.tolist()
            assert got.items.tolist() == sort_all_oracle(q, V, mode)[:k]
            np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-12)
            assert (got.k, got.short, got.score_mode) == (k, want.short, mode)
        assert results[7] == "no in-vocabulary words to encode"
        assert results[3].items.tolist() == results[BLOCK_ROWS + 3].items.tolist()
        if mode == "cosine":
            assert results[BLOCK_ROWS + 9] == "cosine undefined for zero-norm query"

    def test_rejects_bad_k_and_mode(self):
        W, V = np.ones((2, 2), dtype=np.float32), np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ConfigError):
            search([[0], [1]], W, V, [1, 0], "dot")
        with pytest.raises(ScoreError):
            search([[0]], W, V, 1, "euclid")

    def test_empty_item_matrix_skips_every_query(self):
        W = np.ones((2, 2), dtype=np.float32)
        out = search([[0], []], W, np.zeros((0, 2), dtype=np.float32), 3, "dot")
        assert out == ["empty item matrix", "no in-vocabulary words to encode"]


class TestEnsembleInterleave:
    def test_spec_example_with_dedup(self):
        # primary [A,B,C,D], secondary [E,A,F], head 2 -> [A,B,E,C,F,D]
        A, B, C, D, E, F = range(6)
        out = ensemble_interleave(ranked([A, B, C, D]), ranked([E, A, F]), 2)
        assert out.items.tolist() == [A, B, E, C, F, D]

    def test_empty_secondary_is_identity(self):
        out = ensemble_interleave(ranked([3, 1, 2]), ranked([]), 2)
        assert out.items.tolist() == [3, 1, 2]

    def test_head_zero_pure_alternation(self):
        out = ensemble_interleave(ranked([0, 1, 2]), ranked([5, 6, 7]), 0)
        assert out.items.tolist() == [5, 0, 6, 1, 7, 2]

    def test_secondary_capped_at_head_len(self):
        out = ensemble_interleave(ranked([0, 1, 2, 3]), ranked([7, 8, 9]), 1)
        # head [0], then one secondary entry max (cap 1): [0, 7, 1, 2, 3]
        assert out.items.tolist() == [0, 7, 1, 2, 3]

    def test_no_duplicates_and_order_preserved(self, rng):
        for _ in range(50):
            p = ranked(rng.permutation(10)[: rng.integers(0, 10)])
            s = ranked(rng.permutation(10)[: rng.integers(0, 10)])
            head = int(rng.integers(0, 6))
            out = ensemble_interleave(p, s, head)
            merged = out.items.tolist()
            assert len(merged) == len(set(merged))
            for src, other in ((p.items.tolist(), s.items.tolist()),
                               (s.items.tolist(), p.items.tolist())):
                # items shared by both lists are emitted by whichever list
                # reaches them first, so order is only pinned for unique ones
                unique = [x for x in src if x in set(merged) and x not in set(other)]
                positions = [merged.index(x) for x in unique]
                assert positions == sorted(positions)
            if head == 0:
                # no head means no secondary cap: nothing is dropped
                assert set(merged) == set(p.items.tolist()) | set(s.items.tolist())

    def test_scores_carried_from_sources(self):
        p = ranked([0, 1], [5.0, 4.0])
        s = ranked([2], [9.0])
        out = ensemble_interleave(p, s, 1)
        got = dict(zip(out.items.tolist(), out.scores.tolist()))
        assert got == {0: 5.0, 2: 9.0, 1: 4.0}

    def test_negative_head_rejected(self):
        with pytest.raises(ConfigError):
            ensemble_interleave(ranked([0]), ranked([1]), -1)
