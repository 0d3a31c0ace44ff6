"""Square-loss oracles: hand fixtures and brute-force/efficient equivalence."""
import numpy as np
import pytest

from tests.conftest import make_random_corpus
from zsretrieval.corpus import Corpus, CorrelationGraph, Rows, empty_graph
from zsretrieval.errors import ConfigError, SizeGuardError
from zsretrieval.sl_trainer import (
    resolve_weights,
    sl_loss_bruteforce,
    sl_loss_efficient,
)
from zsretrieval.store import (
    STL,
    ZSL_ME,
    ZSL_TE,
    ModelState,
    TrainConfig,
    init_model_state,
)


def two_item_fixture():
    """n=2, d=1, v=(1,2), contexts from text so u=(3,4) under zsl_te.

    Ne(0)={1}, Ne(1)={}; each item's single word carries its context value.
    """
    graph = CorrelationGraph(Rows.from_lists([[1], []]), Rows.from_lists([[1], []]), 10)
    corpus = Corpus(["i0", "i1"], ["w0", "w1"],
                    Rows.from_lists([[0], [1]]),
                    graph, {})
    W = np.array([[3.0], [4.0]], dtype=np.float32)
    V = np.array([[1.0], [2.0]], dtype=np.float32)
    state = ModelState(ZSL_TE, 1, W, V, None, seed=0)
    config = TrainConfig(kind=ZSL_TE, d=1, omega0=0.1, lam=0.0,
                         use_weights=False, exclude_self_negative=False)
    return state, corpus, config


class TestHandFixtures:
    def test_19_9_bruteforce(self):
        # (1*4-1)^2 + 0.1(1*3)^2 + 0.1[(2*3)^2 + (2*4)^2] = 9 + 0.9 + 10 = 19.9
        state, corpus, config = two_item_fixture()
        assert sl_loss_bruteforce(state, corpus, config) == pytest.approx(19.9, abs=1e-12)

    def test_19_9_efficient_matches(self):
        state, corpus, config = two_item_fixture()
        assert sl_loss_efficient(state, corpus, config) == pytest.approx(19.9, abs=1e-12)

    def test_zero_blocks_loss_counts_positives(self):
        state, corpus, config = two_item_fixture()
        state.W[:] = 0.0
        state.V[:] = 0.0
        # one graph edge -> one positive term (0-1)^2
        assert sl_loss_bruteforce(state, corpus, config) == pytest.approx(1.0)
        assert sl_loss_efficient(state, corpus, config) == pytest.approx(1.0)

    def test_perfect_fit_zero_loss(self):
        state, corpus, config = two_item_fixture()
        config = TrainConfig(kind=ZSL_TE, d=1, omega0=1e-12, lam=0.0,
                             use_weights=False)
        # v_0 * u_1 = 1 with u_1 = w_1: set w to make the single positive exact
        state.W[1] = 1.0
        state.V[0] = 1.0
        brute = sl_loss_bruteforce(state, corpus, config)
        assert brute == pytest.approx(0.0, abs=1e-9)

    def test_d1_separability_identity(self, rng):
        # omega0 * sum_i sum_l (v_i u_l)^2 = omega0 (sum v^2)(sum u^2) at d=1
        n = 6
        v = rng.standard_normal((n, 1)).astype(np.float32)
        u_words = rng.standard_normal((n, 1)).astype(np.float32)
        corpus = Corpus([f"i{k}" for k in range(n)], [f"w{k}" for k in range(n)],
                        Rows.from_lists([[k] for k in range(n)]),
                        empty_graph(n), {})
        state = ModelState(ZSL_TE, 1, u_words, v, None, seed=0)
        config = TrainConfig(kind=ZSL_TE, d=1, omega0=0.37, lam=0.0,
                             use_weights=False)
        expect = 0.37 * float((v.astype(np.float64) ** 2).sum()) * float(
            (u_words.astype(np.float64) ** 2).sum())
        assert sl_loss_efficient(state, corpus, config) == pytest.approx(expect, rel=1e-10)

    def test_regularizer_covers_all_blocks(self):
        state, corpus, _ = two_item_fixture()
        config = TrainConfig(kind=ZSL_TE, d=1, omega0=1e-9, lam=2.0,
                             use_weights=False)
        reg = 2.0 * (float((state.W.astype(np.float64) ** 2).sum())
                     + float((state.V.astype(np.float64) ** 2).sum()))
        parts = {}
        sl_loss_efficient(state, corpus, config, parts=parts)
        assert parts["reg"] == pytest.approx(reg, rel=1e-12)


class TestConfigChecks:
    def test_efficient_rejects_a_state_of_another_kind(self):
        state, corpus, _ = two_item_fixture()
        config = TrainConfig(kind=STL, d=1, use_weights=False)
        with pytest.raises(ConfigError, match="state kind"):
            sl_loss_efficient(state, corpus, config)


class TestSizeGuard:
    def test_bruteforce_refuses_large_instances(self, rng):
        corpus = make_random_corpus(rng, 30, 5)
        state = init_model_state(TrainConfig(kind=ZSL_TE, d=2), corpus)
        with pytest.raises(SizeGuardError, match="sl_loss_efficient"):
            sl_loss_bruteforce(state, corpus, TrainConfig(kind=ZSL_TE, d=2),
                               max_terms=100)


class TestEquivalence:
    @pytest.mark.parametrize("kind", [STL, ZSL_ME, ZSL_TE])
    def test_random_instances_match(self, kind):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n, m = int(rng.integers(2, 14)), int(rng.integers(2, 10))
            corpus = make_random_corpus(rng, n, m)
            config = TrainConfig(
                kind=kind, d=int(rng.integers(1, 8)),
                omega0=float(rng.choice([0.001, 0.1, 1.0])),
                lam=float(rng.choice([0.0, 4.0])),
                use_weights=bool(rng.integers(2)),
                weight_negatives=bool(rng.integers(2)),
                exclude_self_negative=bool(rng.integers(2)),
                task1_encoded=bool(rng.integers(2)),
                seed=trial)
            state = init_model_state(config, corpus)
            brute = sl_loss_bruteforce(state, corpus, config)
            eff = sl_loss_efficient(state, corpus, config)
            assert abs(eff - brute) / max(1.0, abs(brute)) <= 1e-8


class TestResolveWeights:
    def test_disabled_weights_all_ones(self, rng):
        corpus = make_random_corpus(rng, 6, 3)
        pos_r, pos_c, neg_r, neg_c = resolve_weights(
            corpus, TrainConfig(use_weights=False))
        for vec in (pos_r, pos_c, neg_r, neg_c):
            assert np.allclose(vec, 1.0)

    def test_unweighted_negatives(self, rng):
        corpus = make_random_corpus(rng, 6, 3)
        pos_r, pos_c, neg_r, neg_c = resolve_weights(
            corpus, TrainConfig(use_weights=True, weight_negatives=False))
        assert np.allclose(neg_r, 1.0) and np.allclose(neg_c, 1.0)
        assert abs(pos_r.mean() - 1.0) < 1e-12
