"""BOW encoding, norm rescaling."""
import numpy as np
import pytest

from zsretrieval.encoder import encode_bow, rescale_item_norms
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
