"""Sampled-softmax baseline: gradients, exact CE oracle, training behavior."""
import math

import numpy as np
import pytest

from tests.conftest import make_random_corpus
from zsretrieval.corpus import Rows
from zsretrieval.errors import ConfigError, NumericError, SizeGuardError
from zsretrieval.smc import (
    SMCConfig,
    batch_gradients,
    ce_loss_exact,
    ce_loss_exact_context,
    sample_candidates,
    train_smc,
)
from zsretrieval.store import SMC, ModelState, init_rows


def exact_softmax_grads(W, V, queries, targets):
    """Dense full-softmax CE gradients, the oracle for batch_gradients."""
    gW = np.zeros_like(W)
    gV = np.zeros_like(V)
    loss = 0.0
    for widx, t in zip(queries, targets):
        q = W[widx].mean(axis=0)
        logits = V @ q
        p = np.exp(logits - logits.max())
        p /= p.sum()
        loss += -math.log(p[t])
        dlogit = p.copy()
        dlogit[t] -= 1.0
        gV += dlogit[:, None] * q[None, :]
        dq = dlogit @ V
        for w in widx:
            gW[w] += dq / len(widx)
    b = len(queries)
    return gW / b, gV / b, loss / b


class TestBatchGradients:
    def test_full_candidates_equal_exact_softmax(self, rng):
        n, m, d = 7, 5, 3
        W = rng.standard_normal((m, d))
        V = rng.standard_normal((n, d))
        queries = [np.array([0, 2]), np.array([1]), np.array([4, 4, 3])]
        targets = np.array([2, 6, 0])
        cands, logqs = [], []
        for t in targets:
            others = np.array([j for j in range(n) if j != t])
            cands.append(np.concatenate([[t], others]))
            logqs.append(np.zeros(n))
        gW, gV, loss = batch_gradients(W, V, queries, targets, cands, logqs)
        eW, eV, eloss = exact_softmax_grads(W, V, queries, targets)
        assert loss == pytest.approx(eloss, abs=1e-12)
        for w, g in gW.items():
            assert g == pytest.approx(eW[w], abs=1e-12)
        for c, g in gV.items():
            assert g == pytest.approx(eV[c], abs=1e-12)

    def test_uniform_corrections_cancel(self, rng):
        W = rng.standard_normal((3, 2))
        V = rng.standard_normal((5, 2))
        queries = [np.array([1])]
        targets = np.array([2])
        cand = np.array([2, 0, 4])
        _, _, base = batch_gradients(W, V, queries, targets, [cand], [np.zeros(3)])
        _, _, shifted = batch_gradients(W, V, queries, targets, [cand],
                                        [np.full(3, -1.7)])
        assert shifted == pytest.approx(base, abs=1e-12)


class TestSampleCandidates:
    def test_target_first_and_excluded_from_negatives(self, rng):
        cand, logq = sample_candidates(rng, 10, 4, 5, "uniform")
        assert cand[0] == 4
        assert 4 not in cand[1:]
        assert len(cand) == 6 and len(logq) == 6
        assert len(set(cand.tolist())) == len(cand)

    def test_negatives_capped_at_n_minus_one(self, rng):
        cand, _ = sample_candidates(rng, 4, 1, 100, "uniform")
        assert sorted(cand.tolist()) == [0, 1, 2, 3]

    def test_log_uniform_favors_small_indices(self):
        rng = np.random.default_rng(0)
        hits = np.zeros(50)
        for _ in range(400):
            cand, _ = sample_candidates(rng, 50, 49, 5, "log_uniform")
            hits[cand[1:]] += 1
        assert hits[:10].sum() > hits[10:20].sum() > hits[40:50].sum()


class TestCELossExact:
    def test_uniform_logits_ln_n(self):
        n, d = 4, 3
        state = ModelState(SMC, d, np.zeros((2, d), dtype=np.float32),
                           np.zeros((n, d), dtype=np.float32), None, 0)
        loss = ce_loss_exact(state, [([0], 2), ([1, 1], 0)])
        assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_dominant_logit_drives_loss_to_zero(self):
        V = np.zeros((3, 1), dtype=np.float32)
        V[1, 0] = 50.0
        W = np.ones((1, 1), dtype=np.float32)
        state = ModelState(SMC, 1, W, V, None, 0)
        assert ce_loss_exact(state, [([0], 1)]) < 1e-20

    def test_hand_softmax_n3_d1(self):
        W = np.array([[1.0]], dtype=np.float32)
        V = np.array([[0.5], [1.0], [-0.25]], dtype=np.float32)
        state = ModelState(SMC, 1, W, V, None, 0)
        z = np.array([0.5, 1.0, -0.25])
        expect = -math.log(math.exp(z[1]) / np.exp(z).sum())
        assert ce_loss_exact(state, [([0], 1)]) == pytest.approx(expect, abs=1e-12)

    def test_size_guard(self):
        state = ModelState(SMC, 1, np.zeros((1, 1), dtype=np.float32),
                           np.zeros((10, 1), dtype=np.float32), None, 0)
        with pytest.raises(SizeGuardError):
            ce_loss_exact(state, [([0], 1)], max_items=5)

    def test_context_variant_uses_bow_without_u(self, rng):
        corpus = make_random_corpus(rng, 4, 3, max_text=3)
        corpus.word_lists = Rows.from_lists([[0]] * 4)
        W = np.zeros((3, 2), dtype=np.float32)
        V = np.zeros((4, 2), dtype=np.float32)
        state = ModelState(SMC, 2, W, V, None, 0)
        loss = ce_loss_exact_context(state, [(0, 1)], corpus)
        assert loss == pytest.approx(math.log(4), abs=1e-12)


class TestTrainSMC:
    def test_zero_steps_returns_initialization(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        cfg = SMCConfig(d=3, steps=0, seed=2)
        state = train_smc([([0], 1)], corpus, cfg)
        assert np.array_equal(state.W, init_rows(2, "W", range(4), 3, 0.1))
        assert np.array_equal(state.V, init_rows(2, "V", range(5), 3, 0.1))
        assert state.kind == SMC and state.score_mode == "dot"

    def test_reproducible_given_seed(self, rng):
        corpus = make_random_corpus(rng, 6, 4)
        pairs = [([0, 1], 2), ([3], 5), ([2], 0)]
        cfg = SMCConfig(d=3, negatives=3, batch_size=2, steps=40, seed=5)
        a = train_smc(pairs, corpus, cfg)
        b = train_smc(pairs, corpus, cfg)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.V, b.V)

    def test_exact_ce_decreases_in_trend(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        pairs = [([1, 2], 3)]
        cfg0 = SMCConfig(d=3, negatives=4, batch_size=1, steps=0,
                         learning_rate=0.3, seed=6)
        initial = ce_loss_exact(train_smc(pairs, corpus, cfg0), pairs)
        cfg = SMCConfig(d=3, negatives=4, batch_size=1, steps=200,
                        learning_rate=0.3, seed=6)
        final = ce_loss_exact(train_smc(pairs, corpus, cfg), pairs)
        assert final < initial

    def test_divergence_aborts_with_step(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        pairs = [([0], 1), ([1], 2)]
        cfg = SMCConfig(d=3, negatives=4, batch_size=2, steps=3000,
                        learning_rate=1e12, seed=7)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="step"):
            train_smc(pairs, corpus, cfg)

    def test_invalid_pairs_rejected(self, rng):
        corpus = make_random_corpus(rng, 3, 2)
        with pytest.raises(ConfigError):
            train_smc([], corpus, SMCConfig(d=2))
        with pytest.raises(ConfigError):
            train_smc([([0], 99)], corpus, SMCConfig(d=2))
        with pytest.raises(ConfigError):
            train_smc([([], 0)], corpus, SMCConfig(d=2))
