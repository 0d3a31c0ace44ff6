"""Sampled-softmax baseline: gradients, exact CE oracle, training behavior."""
import math

import numpy as np
import pytest

from tests.conftest import make_random_corpus
from zsretrieval.corpus import Corpus, Rows, empty_graph
from zsretrieval.errors import ConfigError, NumericError, SizeGuardError
from zsretrieval.smc import (
    SAMPLINGS,
    SMCConfig,
    _log_uniform_probs,
    batch_gradients,
    ce_loss_exact,
    sample_candidates,
    train_smc,
)
from zsretrieval.store import SMC, ModelState, init_rows


# The per-example step the array step replaced, kept as its reference: one
# query and one candidate at a time, gradients summed in dicts.
def reference_batch_gradients(W, V, queries, targets, candidates, log_q):
    gW, gV = {}, {}
    bsz = len(queries)
    loss = 0.0
    for b in range(bsz):
        widx = queries[b]
        q = W[widx].mean(axis=0)
        cand = candidates[b]
        logits = V[cand] @ q - log_q[b]
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        loss += -math.log(max(p[0], 1e-300))
        dlogit = p.copy()
        dlogit[0] -= 1.0
        dq = dlogit @ V[cand]
        for c, g in zip(cand, dlogit[:, None] * q[None, :]):
            c = int(c)
            gV[c] = gV.get(c, 0.0) + g
        gw = dq / len(widx)
        for w in widx:
            w = int(w)
            gW[w] = gW.get(w, 0.0) + gw
    scale = 1.0 / bsz
    return ({k: v * scale for k, v in gW.items()},
            {k: v * scale for k, v in gV.items()},
            loss * scale)


def reference_sample_candidates(rng, n_items, target, negatives, sampling):
    s = min(negatives, n_items - 1)
    others = np.concatenate([np.arange(target), np.arange(target + 1, n_items)])
    if sampling == "uniform":
        neg = rng.choice(others, size=s, replace=False)
        logq = np.full(s + 1, math.log(max(s, 1) / (n_items - 1)) if s else 0.0)
    else:
        probs = _log_uniform_probs(n_items)[others]
        probs = probs / probs.sum()
        neg = rng.choice(others, size=s, replace=False, p=probs)
        full = _log_uniform_probs(n_items)
        logq = np.log(np.concatenate([[full[target]], full[neg]]))
    cand = np.concatenate([[target], neg]).astype(np.int64)
    return cand, logq


def reference_train_smc(pairs, corpus, config):
    W = init_rows(config.seed, "W", range(corpus.m), config.d, config.init_std).astype(np.float64)
    V = init_rows(config.seed, "V", range(corpus.n), config.d, config.init_std).astype(np.float64)
    rng = np.random.default_rng(config.seed)
    queries = Rows.from_lists([w for w, _ in pairs])
    targets = np.array([t for _, t in pairs], dtype=np.int64)
    order = rng.permutation(len(pairs))
    cursor = 0
    for _ in range(config.steps):
        if cursor + config.batch_size > len(order):
            order = rng.permutation(len(pairs))
            cursor = 0
        take = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        bt = targets[take]
        cands, logqs = zip(*(reference_sample_candidates(rng, corpus.n, int(t), config.negatives,
                                                         config.sampling) for t in bt))
        gW, gV, _ = reference_batch_gradients(W, V, [queries[i] for i in take], bt, cands, logqs)
        for w, g in gW.items():
            W[w] -= config.learning_rate * g
        for c, g in gV.items():
            V[c] -= config.learning_rate * g
    return W.astype(np.float32), V.astype(np.float32)


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


def full_candidates(n, targets):
    """Every item as a candidate of each target, the target first."""
    return np.array([[t] + [j for j in range(n) if j != t] for t in targets])


class TestBatchGradients:
    def test_full_candidates_equal_exact_softmax(self, rng):
        n, m, d = 7, 5, 3
        W = rng.standard_normal((m, d))
        V = rng.standard_normal((n, d))
        queries = [np.array([0, 2]), np.array([1]), np.array([4, 4, 3])]
        targets = np.array([2, 6, 0])
        cands = full_candidates(n, targets)
        w_rows, gW, v_rows, gV, loss = batch_gradients(W, V, Rows.from_lists(queries), cands,
                                                       np.zeros(cands.shape))
        eW, eV, eloss = exact_softmax_grads(W, V, queries, targets)
        assert loss == pytest.approx(eloss, abs=1e-12)
        assert w_rows.tolist() == list(range(m)) and v_rows.tolist() == list(range(n))
        for w, g in zip(w_rows, gW):
            assert g == pytest.approx(eW[w], abs=1e-12)
        for c, g in zip(v_rows, gV):
            assert g == pytest.approx(eV[c], abs=1e-12)

    def test_uniform_corrections_cancel(self, rng):
        W = rng.standard_normal((3, 2))
        V = rng.standard_normal((5, 2))
        queries = Rows.from_lists([[1]])
        cand = np.array([[2, 0, 4]])
        base = batch_gradients(W, V, queries, cand, np.zeros((1, 3)))[-1]
        shifted = batch_gradients(W, V, queries, cand, np.full((1, 3), -1.7))[-1]
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_same_bits_as_the_per_example_step(self, rng):
        # Items drawn by several examples and words in several queries (or
        # twice in one) sum their terms in the reference's order. Queries hold
        # one or two words: from three on, encode_rows (np.add.reduceat) and
        # the reference's mean(axis=0) may add the word rows in other orders.
        n, m, d, B = 6, 4, 3, 16
        W = rng.standard_normal((m, d))
        V = rng.standard_normal((n, d))
        queries = [rng.integers(0, m, size=int(rng.integers(1, 3))) for _ in range(B)]
        cands = np.array([rng.choice(n, size=4, replace=False) for _ in range(B)])
        log_q = rng.standard_normal(cands.shape)
        w_rows, gW, v_rows, gV, loss = batch_gradients(W, V, Rows.from_lists(queries), cands, log_q)
        rW, rV, rloss = reference_batch_gradients(W, V, queries, cands[:, 0], cands, log_q)
        assert w_rows.tolist() == sorted(rW) and v_rows.tolist() == sorted(rV)
        assert np.array_equal(gW, [rW[w] for w in sorted(rW)])
        assert np.array_equal(gV, [rV[c] for c in sorted(rV)])
        assert loss == pytest.approx(rloss, abs=1e-12)


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

    # (The reference cannot draw from a one-item log-uniform table: it
    # normalises an empty probability vector.)
    @pytest.mark.parametrize("sampling, n, target, negatives", [
        (sampling, *case) for sampling in SAMPLINGS
        for case in ((10, 4, 5), (10, 0, 3), (10, 9, 9), (10, 3, 40), (2, 1, 1), (10, 4, 0))
    ] + [("uniform", 1, 0, 0)])
    def test_same_draws_as_the_population_choice(self, sampling, n, target, negatives):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(5):
            cand, logq = sample_candidates(rng, n, target, negatives, sampling)
            rcand, rlogq = reference_sample_candidates(ref, n, target, negatives, sampling)
            assert np.array_equal(cand, rcand) and np.array_equal(logq, rlogq)
        assert rng.random() == ref.random()

    def test_one_item_log_uniform_draws_nothing(self, rng):
        before = rng.bit_generator.state
        cand, logq = sample_candidates(rng, 1, 0, 5, "log_uniform")
        assert cand.tolist() == [0] and logq.tolist() == [0.0]
        assert rng.bit_generator.state == before

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

    def test_one_item_model_scores_zero(self):
        one = np.ones((1, 2), dtype=np.float32)
        state = ModelState(SMC, 2, one, one.copy(), None, 0)
        assert ce_loss_exact(state, [([0], 0)]) == 0.0

    def test_no_pairs_rejected(self):
        state = ModelState(SMC, 1, np.ones((1, 1), dtype=np.float32),
                           np.ones((3, 1), dtype=np.float32), np.ones((3, 1), dtype=np.float32), 0)
        with pytest.raises(ConfigError, match="no pairs"):
            ce_loss_exact(state, [])


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

    def test_unknown_sampling_is_refused(self):
        with pytest.raises(ConfigError, match=r"^unknown sampling scheme 'x'$"):
            SMCConfig(sampling="x").validate()

    @pytest.mark.parametrize("field", ["learning_rate", "init_std"])
    def test_int_beyond_float_range_is_refused(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite and"):
            SMCConfig(**{field: 10 ** 400}).validate()


class TestMatchesPerExampleReference:
    """The array step trains the reference's W and V bit for bit."""

    @pytest.mark.parametrize("sampling", SAMPLINGS)
    @pytest.mark.parametrize("n, negatives, batch_size", [
        (9, 0, 4),    # no negatives: the target alone
        (9, 1, 4),
        (9, 8, 4),    # n - 1: every other item
        (9, 20, 4),   # capped at n - 1
        (9, 3, 6),    # 24 candidates over 9 items: items repeat within a batch
        (9, 3, 64),   # batch larger than the pair count
        (60, 10, 16),
        (2, 1, 3),
    ])
    def test_trained_blocks_identical(self, sampling, n, negatives, batch_size):
        rng = np.random.default_rng(n * 1000 + negatives * 10 + batch_size)
        m = 7
        corpus = make_random_corpus(rng, n, m)
        pairs = [(rng.integers(0, m, size=int(rng.integers(1, 5))).tolist(), int(rng.integers(n)))
                 for _ in range(12)]
        pairs.append(([2, 2, 5, 2], n - 1))  # repeated words in one query
        cfg = SMCConfig(d=4, negatives=negatives, batch_size=batch_size, learning_rate=0.3,
                        steps=25, seed=negatives + batch_size, sampling=sampling)
        state = train_smc(pairs, corpus, cfg)
        W, V = reference_train_smc(pairs, corpus, cfg)
        assert np.array_equal(state.W, W) and np.array_equal(state.V, V)

    def test_one_item_corpus_trains_as_uniform(self, rng):
        # A one-item corpus has no negatives to draw: both samplings leave the
        # start untouched, as the reference does under uniform sampling.
        corpus = Corpus(["i0"], ["w0", "w1"], Rows.from_lists([[0]]), empty_graph(1), {})
        pairs = [([0, 1], 0), ([1, 1], 0)]
        cfg = SMCConfig(d=3, negatives=5, batch_size=3, steps=10, seed=4)
        W, V = reference_train_smc(pairs, corpus, cfg)
        for sampling in SAMPLINGS:
            cfg.sampling = sampling
            state = train_smc(pairs, corpus, cfg)
            assert np.array_equal(state.W, W) and np.array_equal(state.V, V)
        assert np.array_equal(V, init_rows(4, "V", range(1), 3, 0.1))
