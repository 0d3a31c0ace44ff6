"""BOW encoding, norm rescaling."""
import numpy as np
import pytest

from tests.conftest import peak_above_start
from zsretrieval import corpus as corpus_module
from zsretrieval.corpus import Rows
from zsretrieval.encoder import encode_bow, encode_rows, rescale_item_norms
from zsretrieval.errors import EncodeError
from zsretrieval.retrieval import retrieve_topk


class TestEncodeBow:
    def test_mean_of_two_rows(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        q = encode_bow([0, 1], W)
        assert q.dtype == np.float64 and q.tolist() == [0.5, 0.5]

    def test_single_word_identity(self):
        W = np.array([[0.25, -1.5, 2.0]], dtype=np.float32)
        q = encode_bow([0], W)
        assert np.allclose(q, W[0])

    def test_multiplicity_weighted_mean(self):
        # [a,a,b] with a=[3,0], b=[0,3] -> [2,1]
        W = np.array([[3.0, 0.0], [0.0, 3.0]], dtype=np.float32)
        q = encode_bow([0, 0, 1], W)
        assert q.tolist() == [2.0, 1.0]

    def test_permutation_invariant(self, rng):
        W = rng.standard_normal((6, 4)).astype(np.float32)
        words = [3, 1, 1, 5, 0]
        a = encode_bow(words, W)
        b = encode_bow(list(reversed(words)), W)
        assert np.allclose(a, b)

    def test_empty_list_rejected(self):
        with pytest.raises(EncodeError, match="no in-vocabulary words"):
            encode_bow([], np.zeros((3, 2), dtype=np.float32))

    @pytest.mark.parametrize("word", [-1, 3])
    def test_word_index_out_of_range_rejected(self, word):
        with pytest.raises(EncodeError, match="^word index out of vocabulary range$"):
            encode_bow([0, word], np.ones((3, 2), dtype=np.float32))


class TestEncodeRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_row_bit_equal_to_the_one_row_mean(self, rng, dtype):
        m, d = 50, 64
        W = rng.standard_normal((m, d)).astype(dtype)
        queries = [rng.integers(0, m, size=int(rng.integers(1, 41))).tolist()
                   for _ in range(300)]
        queries[5] = queries[200] = []  # rows without words are left out
        ids, Q = encode_rows(Rows.from_lists(queries), W)
        assert ids.tolist() == [i for i, words in enumerate(queries) if words]
        assert Q.dtype == np.float64 and Q.shape == (len(ids), d)
        for i, q in zip(ids, Q):
            assert q.tobytes() == encode_bow(queries[i], W).tobytes()
            mean = W[queries[i]].astype(np.float64).mean(axis=0)
            if dtype == np.float32:
                # float32 rows of this range sum exactly in float64, in any order
                assert q.tobytes() == mean.tobytes()
            else:
                np.testing.assert_allclose(q, mean, rtol=1e-13, atol=1e-15)

    # runs of one row (the longest rows exceed the budget), of a few rows, of all rows
    @pytest.mark.parametrize("budget_tokens", [1, 50, None])
    def test_every_budget_gives_the_bits_of_one_reduction(self, rng, monkeypatch, budget_tokens):
        m, d = 40, 8
        W = rng.standard_normal((m, d)).astype(np.float32)
        words = Rows.from_lists([rng.integers(0, m, size=int(rng.integers(0, 30))).tolist()
                                 for _ in range(200)])
        if budget_tokens is not None:
            monkeypatch.setattr(corpus_module, "CHUNK_FLOATS", budget_tokens * d)
        ids, Q = encode_rows(words, W)
        lens = words.lengths()[ids]
        whole = np.add.reduceat(W[words.values], words.indptr[ids], axis=0, dtype=np.float64)
        assert Q.tobytes() == (whole / lens[:, None]).tobytes()

    def test_word_rows_are_gathered_within_the_budget(self, rng):
        m, d, rows = 50, 64, 200
        W = rng.standard_normal((m, d)).astype(np.float32)
        words = Rows.from_lists([rng.integers(0, m, size=100).tolist() for _ in range(rows)])
        peak = peak_above_start(lambda: encode_rows(words, W))
        # the float32 gather and its float64 cast of one run, the result, the row lengths
        assert peak <= 12 * corpus_module.CHUNK_FLOATS + 8 * rows * (d + 4)
        assert 12 * len(words.values) * d > 2 * peak  # what one gather of every token takes

    def test_no_row_with_words(self):
        ids, Q = encode_rows(Rows.from_lists([[], []]), np.ones((3, 5), dtype=np.float32))
        assert ids.tolist() == [] and Q.shape == (0, 5) and Q.dtype == np.float64


class TestRescaleItemNorms:
    def test_hand_scaling(self):
        target = np.array([[3.0, 4.0]], dtype=np.float32)
        source = np.array([[10.0, 0.0]], dtype=np.float32)
        out, skipped = rescale_item_norms(target, source)
        assert np.allclose(out, [[6.0, 8.0]])
        assert skipped.size == 0

    def test_source_equals_target_identity(self, rng):
        X = rng.standard_normal((4, 3)).astype(np.float32)
        out, _ = rescale_item_norms(X, X)
        assert np.allclose(out, X, atol=1e-6)

    def test_zero_norm_rows_left_and_flagged(self):
        target = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        source = np.array([[2.0, 0.0], [0.0, 5.0]], dtype=np.float32)
        out, skipped = rescale_item_norms(target, source)
        assert skipped.tolist() == [0]
        assert out[0].tolist() == [0.0, 0.0]
        assert np.allclose(out[1], [5.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            rescale_item_norms(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_cosine_topk_invariant_dot_changed(self, rng):
        V = rng.standard_normal((12, 4)).astype(np.float32)
        source = (V * rng.uniform(0.1, 10.0, size=(12, 1))).astype(np.float32)
        rescaled, _ = rescale_item_norms(V, source)
        q = rng.standard_normal(4)
        before = retrieve_topk(q, V, 5, "cosine")
        after = retrieve_topk(q, rescaled, 5, "cosine")
        assert before.items.tolist() == after.items.tolist()
        # dot rankings generally move with the transplanted norms
        d_before = retrieve_topk(q, V, 12, "dot").items.tolist()
        d_after = retrieve_topk(q, rescaled, 12, "dot").items.tolist()
        assert d_before != d_after
