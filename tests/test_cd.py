"""Coordinate descent: exact row minimization, monotone sweeps, training."""
import numpy as np
import pytest

from tests.conftest import make_random_corpus
from zsretrieval.corpus import Corpus, CorrelationGraph, Rows
from zsretrieval.sl_trainer import (
    SLTrainer,
    cd_sweep,
    cd_update_row,
    sl_loss_bruteforce,
    sl_loss_efficient,
    train_sl_model,
)
from zsretrieval.store import (
    STL,
    ZSL_ME,
    ZSL_TE,
    ModelState,
    TrainConfig,
    init_model_state,
)

KINDS = [STL, ZSL_ME, ZSL_TE]


def one_edge_corpus():
    graph = CorrelationGraph(Rows.from_lists([[1], []]), Rows.from_lists([[1], []]), 10)
    return Corpus(["i0", "i1"], ["w0", "w1"],
                  Rows.from_lists([[0], [1]]),
                  graph, {})


class TestRowUpdate:
    def test_single_positive_analytic_minimizer(self):
        # one positive (v*u - 1)^2 with u=2 fixed -> v = 0.5
        corpus = one_edge_corpus()
        W = np.array([[0.0], [2.0]], dtype=np.float32)  # u_1 = w_1 = 2
        V = np.array([[7.0], [0.0]], dtype=np.float32)
        state = ModelState(ZSL_TE, 1, W, V, None, seed=0)
        config = TrainConfig(kind=ZSL_TE, d=1, omega0=1e-12, lam=0.0,
                             use_weights=False)
        with np.errstate(all="ignore"):
            row = cd_update_row(state, corpus, config, "V", 0)
        assert row[0] == pytest.approx(0.5, rel=1e-5)

    def test_huge_lambda_shrinks_row_to_zero(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        config = TrainConfig(kind=ZSL_ME, d=3, omega0=0.1, lam=1e12, seed=1)
        state = init_model_state(config, corpus)
        for block, row in (("V", 2), ("U", 1), ("W", 0)):
            out = cd_update_row(state, corpus, config, block, row)
            assert np.max(np.abs(out)) < 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_probes_never_decrease_loss(self, kind):
        rng = np.random.default_rng(7)
        corpus = make_random_corpus(rng, 7, 5)
        config = TrainConfig(kind=kind, d=3, omega0=0.1, lam=1.0, seed=2)
        state = init_model_state(config, corpus)
        trainer = SLTrainer(state, corpus, config)
        blocks = ["V"] + (["U"] if kind == ZSL_ME else []) + \
            (["W"] if trainer._w_has_terms() else [])
        for block in blocks:
            trainer.refresh()
            trainer.update_row(block, 1)
            base = sl_loss_bruteforce(state, corpus, config)
            mat = getattr(state, block)
            saved = mat[1].copy()
            for _ in range(20):
                delta = rng.standard_normal(3)
                delta *= 1e-3 / np.linalg.norm(delta)
                mat[1] = saved + delta
                assert sl_loss_bruteforce(state, corpus, config) >= base - 1e-10
            mat[1] = saved


class TestSweeps:
    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_monotone_and_paths_agree(self, kind):
        rng = np.random.default_rng(11)
        corpus = make_random_corpus(rng, 8, 5)
        config = TrainConfig(kind=kind, d=3, omega0=0.1, lam=0.5, seed=3)
        state = init_model_state(config, corpus)
        prev = sl_loss_efficient(state, corpus, config)
        for _ in range(6):
            cd_sweep(state, corpus, config)
            cur = sl_loss_efficient(state, corpus, config)
            brute = sl_loss_bruteforce(state, corpus, config)
            assert abs(cur - brute) / max(1.0, abs(brute)) <= 1e-8
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
            prev = cur

    def test_fixed_point_stays_put(self, rng):
        corpus = make_random_corpus(rng, 6, 4)
        config = TrainConfig(kind=ZSL_TE, d=2, omega0=0.1, lam=1.0, sweeps=25, seed=4)
        state, _ = train_sl_model(corpus, config)
        before = sl_loss_efficient(state, corpus, config)
        cd_sweep(state, corpus, config)
        after = sl_loss_efficient(state, corpus, config)
        assert after == pytest.approx(before, rel=1e-6)

    def test_pure_ridge_shrinks_everything(self):
        # no positives anywhere, omega0 tiny, lambda > 0: one sweep ~zeros all
        n = 4
        corpus = Corpus([f"i{k}" for k in range(n)], ["w0"],
                        Rows.from_lists([[]] * n),
                        CorrelationGraph(Rows.from_lists([[]] * n),
                                         Rows.from_lists([[]] * n), 5),
                        {})
        config = TrainConfig(kind=ZSL_ME, d=2, omega0=1e-6, lam=1.0, seed=5)
        state = init_model_state(config, corpus)
        cd_sweep(state, corpus, config)
        assert np.max(np.abs(state.V)) < 1e-6
        assert np.max(np.abs(state.U)) < 1e-6
        assert np.max(np.abs(state.W)) < 1e-6

    def test_positives_only_reduces_to_least_squares(self, rng):
        # weights off, omega0 -> 0, lambda 0, task 2 only: V rows solve the
        # normal equations over their observed contexts
        corpus = make_random_corpus(rng, 6, 4, max_degree=3)
        config = TrainConfig(kind=ZSL_ME, d=2, omega0=1e-12, lam=0.0,
                             use_weights=False, seed=6)
        # silence task 1 by pointing every item at an empty word list
        corpus.word_lists = Rows.from_lists([[]] * corpus.n)
        state = init_model_state(config, corpus)
        trainer = SLTrainer(state, corpus, config)
        U = state.U.astype(np.float64)
        with np.errstate(all="ignore"):
            for i in range(corpus.n):
                trainer.refresh()
                trainer.update_row("V", i)
                nb = corpus.graph.neighbors[i]
                if len(nb) == 0:
                    continue
                A = U[nb].T @ U[nb] + 1e-12 * np.eye(2)
                b = U[nb].sum(axis=0)
                expect = np.linalg.solve(A, b)
                assert state.V[i] == pytest.approx(expect, rel=1e-4, abs=1e-4)


class TestTrainSLModel:
    def test_zero_sweeps_returns_initialization(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        config = TrainConfig(kind=ZSL_TE, d=3, sweeps=0, seed=7)
        state, trace = train_sl_model(corpus, config)
        init = init_model_state(config, corpus)
        assert np.array_equal(state.V, init.V)
        assert np.array_equal(state.W, init.W)
        assert len(trace) == 1

    def test_trace_fields_and_monotone_totals(self, rng):
        corpus = make_random_corpus(rng, 6, 4)
        config = TrainConfig(kind=ZSL_ME, d=2, omega0=0.1, lam=0.5, sweeps=4, seed=8)
        state, trace = train_sl_model(corpus, config)
        assert state.sweep_count == 4
        totals = [t["loss_total"] for t in trace]
        assert all(b <= a + 1e-9 * max(1.0, abs(a))
                   for a, b in zip(totals, totals[1:]))
        for t in trace:
            for key in ("sweep", "loss_total", "loss_task1", "loss_task2",
                        "loss_reg", "seconds"):
                assert key in t
            assert t["loss_total"] == pytest.approx(
                t["loss_task1"] + t["loss_task2"] + t["loss_reg"], rel=1e-9)

    def test_resume_continues_from_state(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        config = TrainConfig(kind=ZSL_TE, d=2, omega0=0.1, lam=0.5, sweeps=2, seed=9)
        state, _ = train_sl_model(corpus, config)
        before = sl_loss_efficient(state, corpus, config)
        state2, _ = train_sl_model(corpus, config, state=state)
        assert state2.sweep_count == 4
        assert sl_loss_efficient(state2, corpus, config) <= before + 1e-9
