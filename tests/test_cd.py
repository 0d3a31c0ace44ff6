"""Coordinate descent: exact row minimization, monotone sweeps, training."""
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from tests.conftest import make_random_corpus, peak_above_start
from zsretrieval import corpus as corpus_module
from zsretrieval import sl_trainer as sl_trainer_module
from zsretrieval.corpus import Corpus, CorrelationGraph, Rows, empty_graph
from zsretrieval.encoder import encode_rows
from zsretrieval.errors import ConfigError, NumericError
from zsretrieval.sl_trainer import (
    SLTrainer,
    solve_lowrank,
    sl_loss_bruteforce,
    sl_loss_efficient,
    task_modes,
    train_sl_model,
)
from zsretrieval.store import (
    STL,
    ZSL_ME,
    ZSL_TE,
    ModelState,
    TrainConfig,
    init_model_state,
    load_model,
    save_model,
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
            row = SLTrainer(state, corpus, config).update_row("V", 0)
        assert row[0] == pytest.approx(0.5, rel=1e-5)

    def test_huge_lambda_shrinks_row_to_zero(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        config = TrainConfig(kind=ZSL_ME, d=3, omega0=0.1, lam=1e12, seed=1)
        state = init_model_state(config, corpus)
        for block, row in (("V", 2), ("U", 1), ("W", 0)):
            out = SLTrainer(state, corpus, config).update_row(block, row)
            assert np.max(np.abs(out)) < 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_probes_never_decrease_loss(self, kind):
        rng = np.random.default_rng(7)
        corpus = make_random_corpus(rng, 7, 5)
        config = TrainConfig(kind=kind, d=3, omega0=0.1, lam=1.0, seed=2)
        state = init_model_state(config, corpus)
        trainer = SLTrainer(state, corpus, config)
        blocks = ["V"] + (["U"] if kind == ZSL_ME else []) + ["W"]
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
            SLTrainer(state, corpus, config).sweep()
            cur = sl_loss_efficient(state, corpus, config)
            brute = sl_loss_bruteforce(state, corpus, config)
            assert abs(cur - brute) / max(1.0, abs(brute)) <= 1e-8
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
            prev = cur

    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_reads_state_edited_after_a_sweep(self, kind):
        corpus = edge_case_corpus(seed=9)
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, seed=15,
                             exclude_self_negative=True)
        state = init_model_state(config, corpus)
        trainer = SLTrainer(state, corpus, config)
        trainer.sweep()
        before = trainer.loss()
        for block in ("W", "V", "U"):
            mat = getattr(state, block)
            if mat is not None:
                mat[3] += 0.5
                trainer.refresh()
                brute = sl_loss_bruteforce(state, corpus, config)
                assert abs(trainer.loss() - brute) / max(1.0, abs(brute)) <= 1e-8
        assert trainer.loss() != before

    @pytest.mark.parametrize("task1_encoded", [False, True])
    @pytest.mark.parametrize("exclude_self_negative", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_caches_match_the_state_after_every_sweep(self, kind, exclude_self_negative,
                                                      task1_encoded):
        corpus = edge_case_corpus(seed=4)
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, seed=19,
                             exclude_self_negative=exclude_self_negative,
                             task1_encoded=task1_encoded)
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)

        def caches(t):
            out = {"Gv_neg": t.Gv_neg}
            for task in t.tasks:
                out[f"{task.name}.ctx"], out[f"{task.name}.G"] = task.ctx, task.G
            for block in t.blocks:  # each pass's Gramian and its eigenbasis
                gram = t._gram(block)
                out[f"{block}.G"], (out[f"{block}.vals"], out[f"{block}.Q"]) = gram.G, gram.basis
            return {name: cache.tobytes() for name, cache in out.items()}

        for _ in range(3):  # set-up, then each sweep
            assert caches(trainer) == caches(SLTrainer(trainer.state.copy(), corpus, config))
            trainer.sweep()
        assert caches(trainer) == caches(SLTrainer(trainer.state.copy(), corpus, config))

    def test_fixed_point_stays_put(self, rng):
        corpus = make_random_corpus(rng, 6, 4)
        config = TrainConfig(kind=ZSL_TE, d=2, omega0=0.1, lam=1.0, sweeps=25, seed=4)
        state, _ = train_sl_model(corpus, config)
        before = sl_loss_efficient(state, corpus, config)
        SLTrainer(state, corpus, config).sweep()
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
        SLTrainer(state, corpus, config).sweep()
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

    @pytest.mark.parametrize("kind", KINDS)
    def test_refreshes_only_after_a_change_and_keeps_the_bits(self, kind, monkeypatch):
        corpus = edge_case_corpus(seed=6)
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, sweeps=3, seed=18)
        ref = init_model_state(config, corpus)
        trainer = SLTrainer(ref, corpus, config)
        losses = [trainer.loss()]
        for _ in range(config.sweeps):  # the public calls
            trainer.sweep()
            losses.append(trainer.loss())
        calls = []
        refresh = SLTrainer.refresh
        monkeypatch.setattr(SLTrainer, "refresh", lambda self: calls.append(refresh(self)))
        state, trace = train_sl_model(corpus, config)
        # set-up only: each sweep rebuilds the caches of the blocks it solved
        assert len(calls) == 1
        assert [t["loss_total"] for t in trace] == losses
        for name, block in ref.blocks.items():
            assert getattr(state, name).tobytes() == block.tobytes(), name

    def test_resume_continues_from_state(self, rng):
        corpus = make_random_corpus(rng, 5, 4)
        config = TrainConfig(kind=ZSL_TE, d=2, omega0=0.1, lam=0.5, sweeps=2, seed=9)
        state, _ = train_sl_model(corpus, config)
        before = sl_loss_efficient(state, corpus, config)
        state2, _ = train_sl_model(corpus, config, state=state)
        assert state2.sweep_count == 4
        assert sl_loss_efficient(state2, corpus, config) <= before + 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_loaded_state_is_refused_and_left_unchanged(self, rng, tmp_path, kind):
        corpus = make_random_corpus(rng, 6, 4)
        config = TrainConfig(kind=kind, d=2, omega0=0.1, lam=0.5, sweeps=1, seed=10)
        save_model(train_sl_model(corpus, config)[0], tmp_path, corpus)
        loaded = load_model(tmp_path)
        before = loaded.copy()
        refused = r"^block V of the state is read-only .*state\.copy\(\)"
        with pytest.raises(ConfigError, match=refused):
            train_sl_model(corpus, config, state=loaded)
        with pytest.raises(ConfigError, match="read-only"):
            SLTrainer(loaded, corpus, config).update_row("W", 0)
        for block in ("W", "V", "U"):
            x, y = getattr(loaded, block), getattr(before, block)
            assert (x is None and y is None) or np.array_equal(x, y)
        assert loaded.sweep_count == before.sweep_count
        assert sl_loss_efficient(loaded, corpus, config) == \
            sl_loss_efficient(loaded.copy(), corpus, config)
        assert train_sl_model(corpus, config, state=loaded.copy())[0].sweep_count == 2


# ---------------------------------------------------------------------------
# The pass routine against a row-by-row Gauss-Seidel reference.
#
# ref_update_* are the one-row updates the trainer made before its passes
# were chunked and level-scheduled, kept here as the oracle: each builds one
# row's normal equations from the caches of ref_refresh and solves them.


def ref_refresh(t):
    """The caches ref_update_* read, computed here from the state and the
    corpus: the task modes, the Gramians, the BOW encodings, the transposed
    graph and which items list themselves as a neighbor. Weights, incidences
    and text lengths come from the trainer."""
    n = t.corpus.n
    t.t1_mode, t.t2, t.free_u = task_modes(t.config)
    t.W64 = t.state.W.astype(np.float64)
    t.V64 = t.state.V.astype(np.float64)
    t.U64 = None if t.state.U is None else t.state.U.astype(np.float64)
    t.Gv_neg = (t.V64 * t.neg_r[:, None]).T @ t.V64
    t.Gw = t.W64.T @ t.W64
    t.enc_ids, t.enc = encode_rows(t.corpus.word_lists, t.W64)
    t.enc_slot = np.full(n, -1, dtype=np.int64)
    t.enc_slot[t.enc_ids] = np.arange(len(t.enc_ids))
    t.Gq = t.enc.T @ t.enc
    ctx_ids, ctx = (np.arange(n), t.U64) if t.free_u else (t.enc_ids, t.enc)
    t.Gu = (ctx * t.neg_c[ctx_ids][:, None]).T @ ctx
    t.in_edges = t.corpus.graph.neighbors.transpose(n)[0]
    t.self_in_ne = np.array([i in t.corpus.graph.neighbors[i] for i in range(n)])


def ref_solve(A, b, block, row):
    """A row's d x d system solved alone; where it is singular, the min-norm
    least-squares solution, warned as the trainer warns it."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        warnings.warn(f"singular system at {block}[{row}]; solved by least squares")
        return np.linalg.lstsq(A, b, rcond=None)[0]


def ref_update_v(t, i):
    cfg, om, d = t.config, t.config.omega0, t.config.d
    A = cfg.lam * np.eye(d)
    b = np.zeros(d)
    if t.t1_mode == "perword":
        A += om * t.neg_r[i] * t.Gw
        idx, cnt = t.incidence[i], t.inc_mult[i]
        if len(idx):
            P = t.W64[idx]
            coef = t.pos_r[i] * cnt - om * t.neg_r[i]
            A += (P * coef[:, None]).T @ P
            b += (t.pos_r[i] * cnt) @ P
    elif t.t1_mode == "encoded":
        A += om * t.neg_r[i] * t.Gq
        k = t.enc_slot[i]
        if k >= 0:
            q = t.enc[k]
            A += (t.pos_r[i] - om * t.neg_r[i]) * np.outer(q, q)
            b += t.pos_r[i] * q
    if t.t2:
        A += om * t.neg_r[i] * t.Gu
        nb = t.corpus.graph.neighbors[i]
        if len(nb):
            if t.free_u:
                cols, ctxm = nb, t.U64[nb]
            else:
                slot = t.enc_slot[nb]
                keep = slot >= 0
                cols, ctxm = nb[keep], t.enc[slot[keep]]
            if len(cols):
                cpos = t.pos_r[i] * t.pos_c[cols]
                coef = cpos - om * t.neg_r[i] * t.neg_c[cols]
                A += (ctxm * coef[:, None]).T @ ctxm
                b += cpos @ ctxm
        if cfg.exclude_self_negative and not t.self_in_ne[i]:
            u = t.U64[i] if t.free_u else (t.enc[t.enc_slot[i]] if t.enc_slot[i] >= 0 else None)
            if u is not None:
                A -= om * t.neg_r[i] * t.neg_c[i] * np.outer(u, u)
    t.state.V[i] = ref_solve(A, b, "V", i).astype(np.float32)
    t.V64[i] = t.state.V[i]


def ref_update_u(t, j):
    cfg, om = t.config, t.config.omega0
    A = cfg.lam * np.eye(cfg.d) + om * t.neg_c[j] * t.Gv_neg
    b = np.zeros(cfg.d)
    seeds = t.in_edges[j]
    if len(seeds):
        P = t.V64[seeds]
        coef = t.pos_r[seeds] * t.pos_c[j] - om * t.neg_r[seeds] * t.neg_c[j]
        A += (P * coef[:, None]).T @ P
        b += (t.pos_r[seeds] * t.pos_c[j]) @ P
    if cfg.exclude_self_negative and not t.self_in_ne[j]:
        A -= om * t.neg_r[j] * t.neg_c[j] * np.outer(t.V64[j], t.V64[j])
    t.state.U[j] = ref_solve(A, b, "U", j).astype(np.float32)
    t.U64[j] = t.state.U[j]


def ref_update_w(t, e):
    cfg, om, d = t.config, t.config.omega0, t.config.d
    A = cfg.lam * np.eye(d)
    b = np.zeros(d)
    items, mult = t.word_items[e], t.word_mult[e]
    if t.t1_mode == "perword":
        A += om * t.Gv_neg
        if len(items):
            P = t.V64[items]
            coef = t.pos_r[items] * mult - om * t.neg_r[items]
            A += (P * coef[:, None]).T @ P
            b += (t.pos_r[items] * mult) @ P
        t.state.W[e] = ref_solve(A, b, "W", e).astype(np.float32)
        t.W64[e] = t.state.W[e]
        return
    slot = t.enc_slot[items]
    keep = slot >= 0
    ctx, ks = items[keep], slot[keep]
    alphas = mult[keep] / t.text_len[ctx]
    restM = t.enc[ks] - alphas[:, None] * t.W64[e]
    if t.t1_mode == "encoded":
        A += om * float(np.sum(alphas * alphas)) * t.Gv_neg
        if len(ctx):
            b -= om * t.Gv_neg @ (alphas @ restM)
            Vs = t.V64[ctx]
            beta = np.einsum("td,td->t", Vs, restM)
            cpos, cneg = t.pos_r[ctx], om * t.neg_r[ctx]
            A += (Vs * ((cpos - cneg) * alphas * alphas)[:, None]).T @ Vs
            b += ((cpos * (1.0 - beta) + cneg * beta) * alphas) @ Vs
    else:
        cneg_ctx = t.neg_c[ctx]
        A += om * float(np.sum(cneg_ctx * alphas * alphas)) * t.Gv_neg
        if len(ctx):
            b -= om * t.Gv_neg @ ((cneg_ctx * alphas) @ restM)
            starts = t.in_edges.indptr[ctx]
            lens_in = t.in_edges.indptr[ctx + 1] - starts
            pslot = np.repeat(np.arange(len(ctx)), lens_in)
            if len(pslot):
                skip = starts - (np.cumsum(lens_in) - lens_in)
                seeds = t.in_edges.values[np.arange(len(pslot)) + skip[pslot]]
                Vs = t.V64[seeds]
                beta = np.einsum("pd,pd->p", Vs, restM[pslot])
                a = alphas[pslot]
                dst = ctx[pslot]
                cpos = t.pos_r[seeds] * t.pos_c[dst]
                cneg = om * t.neg_r[seeds] * t.neg_c[dst]
                A += (Vs * ((cpos - cneg) * a * a)[:, None]).T @ Vs
                b += ((cpos * (1.0 - beta) + cneg * beta) * a) @ Vs
            if cfg.exclude_self_negative:
                sel = ~t.self_in_ne[ctx]
                if np.any(sel):
                    ells = ctx[sel]
                    Vse = t.V64[ells]
                    beta = np.einsum("pd,pd->p", Vse, restM[sel])
                    a = alphas[sel]
                    cneg = om * t.neg_r[ells] * t.neg_c[ells]
                    A -= (Vse * (cneg * a * a)[:, None]).T @ Vse
                    b += (cneg * beta * a) @ Vse
    t.state.W[e] = ref_solve(A, b, "W", e).astype(np.float32)
    t.W64[e] = t.state.W[e]
    if len(ctx):
        t.enc[ks] = restM + alphas[:, None] * t.W64[e]


def ref_sweep(t):
    """Every row in index order, each solved against all rows before it."""
    ref_refresh(t)
    for i in range(t.corpus.n):
        ref_update_v(t, i)
    if t.free_u:
        ref_refresh(t)
        for j in range(t.corpus.n):
            ref_update_u(t, j)
    ref_refresh(t)
    for e in range(t.corpus.m):
        ref_update_w(t, e)
    t.state.sweep_count += 1


def edge_case_corpus(seed=5, n=16, m=14):
    """Random corpus with items 0-1 without text, the last two words on no
    item, item 2 isolated (no edges in or out) and some self edges."""
    rng = np.random.default_rng(seed)
    words = [[] if i < 2 else np.sort(rng.integers(0, m - 2, size=int(rng.integers(1, 6))))
             for i in range(n)]
    others = [j for j in range(n) if j != 2]
    neighbors, counts = [], []
    for i in range(n):
        deg = 0 if i == 2 else int(rng.integers(0, 6))
        nb = np.sort(rng.choice(others, size=deg, replace=False))
        neighbors.append(nb)
        counts.append(rng.integers(1, 4, size=deg))
    nbrs = Rows.from_lists(neighbors)
    graph = CorrelationGraph(nbrs, Rows(nbrs.indptr, np.concatenate(counts).astype(np.int64)), 10)
    return Corpus([f"i{k}" for k in range(n)], [f"w{k}" for k in range(m)],
                  Rows.from_lists(words), graph, {})


def lowrank_rows(trainer, block):
    """Which rows of ``block`` the flop model gives the low-rank path."""
    return trainer.plan[block][0] < trainer.config.d


def assert_states_match(a, b):
    for block in ("W", "V", "U"):
        x, y = getattr(a, block), getattr(b, block)
        if x is None:
            assert y is None
            continue
        np.testing.assert_allclose(x.astype(np.float64), y.astype(np.float64),
                                   rtol=1e-12, atol=0, err_msg=block)


FLAGS = [dict(zip(("exclude_self_negative", "task1_encoded", "use_weights",
                   "weight_negatives"), combo))
         for combo in itertools.product((False, True), repeat=4)]


class TestPassesMatchRowByRow:
    @pytest.mark.parametrize("chunk_floats", [None, 20])
    @pytest.mark.parametrize("flags", FLAGS,
                             ids=lambda f: "-".join(k for k, v in f.items() if v) or "plain")
    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_equals_sequential_gauss_seidel(self, kind, flags, chunk_floats, monkeypatch):
        default = corpus_module.CHUNK_FLOATS
        if chunk_floats is not None:  # two rows or six term rows (or pairs) per chunk
            monkeypatch.setattr(corpus_module, "CHUNK_FLOATS", chunk_floats)
        corpus = edge_case_corpus()
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, seed=12, **flags)
        state = init_model_state(config, corpus)
        ref = state.copy()
        trainer, oracle = SLTrainer(state, corpus, config), SLTrainer(ref, corpus, config)
        if task_modes(config)[0] != "perword":
            assert len(oracle.levels["W"]) > 2  # the W pass runs on a real schedule
        for _ in range(2):
            stats = trainer.sweep()
            ref_sweep(oracle)
            oracle.refresh()  # ref_sweep wrote the oracle's state by hand
            assert_states_match(state, ref)
            parts, other = {}, {}
            loss = trainer.loss(parts)
            assert loss == pytest.approx(oracle.loss(), rel=1e-12)
            with monkeypatch.context() as budget:  # the other budget gives the same bits
                budget.setattr(corpus_module, "CHUNK_FLOATS", default if chunk_floats else 20)
                assert trainer.loss(other) == loss and other == parts
            brute = sl_loss_bruteforce(state, corpus, config)
            assert abs(loss - brute) / max(1.0, abs(brute)) <= 1e-8
            assert stats["fallbacks_lstsq"] == 0
            assert (stats["seconds_U"] > 0) == (kind == ZSL_ME)

    @pytest.mark.parametrize("no_edges", [False, True], ids=["graph", "no-edges"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_keeps_its_bits_at_every_slice_edge(self, kind, no_edges, monkeypatch):
        corpus = edge_case_corpus()
        if no_edges:  # task 2 has no pairs
            corpus = Corpus(corpus.item_ids, corpus.vocab, corpus.word_lists,
                            empty_graph(corpus.n), {})
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, seed=17)
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)
        trainer.sweep()
        counts = [len(task.pos.values) for task in trainer.tasks]
        assert (0 in counts) == (no_edges and kind != STL)
        parts = {}
        loss = trainer.loss(parts)
        brute = sl_loss_bruteforce(trainer.state, corpus, config)
        assert abs(loss - brute) / max(1.0, abs(brute)) <= 1e-8
        for pairs in counts:
            # one pair a slice, a last slice of one pair, one slice of them all
            for step in {1, max(pairs // 2, 1), max(pairs - 1, 1), max(pairs, 1)}:
                monkeypatch.setattr(corpus_module, "CHUNK_FLOATS", step * config.d)
                got = {}
                assert trainer.loss(got) == loss and got == parts

    @pytest.mark.parametrize("kind", KINDS)
    def test_update_row_is_the_one_row_case(self, kind):
        corpus = edge_case_corpus(seed=8)
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, seed=13,
                             exclude_self_negative=True)
        state = init_model_state(config, corpus)
        ref = state.copy()
        trainer, oracle = SLTrainer(state, corpus, config), SLTrainer(ref, corpus, config)
        ref_refresh(oracle)
        updates = {"V": ref_update_v, "U": ref_update_u, "W": ref_update_w}
        for block in ["V"] + (["U"] if kind == ZSL_ME else []) + ["W"]:
            for row in (0, 2, 5, corpus.m - 1 if block == "W" else corpus.n - 1):
                got = trainer.update_row(block, row)
                updates[block](oracle, row)
                assert np.array_equal(got, getattr(ref, block)[row])
        assert_states_match(state, ref)

    @pytest.mark.parametrize("chunk_floats", [None, 40])
    @pytest.mark.parametrize("task1_encoded", [False, True])
    @pytest.mark.parametrize("exclude_self_negative", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_passes_on_both_paths_match_row_by_row(self, kind, exclude_self_negative,
                                                   task1_encoded, chunk_floats, monkeypatch):
        if chunk_floats is not None:  # a few rows a chunk, one or two a batch
            monkeypatch.setattr(corpus_module, "CHUNK_FLOATS", chunk_floats)
        corpus = edge_case_corpus()
        config = TrainConfig(kind=kind, d=6, omega0=0.05, lam=0.3, seed=12,
                             exclude_self_negative=exclude_self_negative,
                             task1_encoded=task1_encoded)
        state = init_model_state(config, corpus)
        ref, rowwise = state.copy(), state.copy()
        trainer, oracle = SLTrainer(state, corpus, config), SLTrainer(ref, corpus, config)
        one = SLTrainer(rowwise, corpus, config)
        for block in trainer.blocks:  # each pass solves rows on both paths ...
            low = lowrank_rows(trainer, block)
            # ... but encoded stl's V pass: every V row has at most one term
            assert low.any() and (not low.all() or (kind, task1_encoded, block) == (STL, True, "V"))
        for _ in range(2):
            stats = trainer.sweep()
            ref_sweep(oracle)
            oracle.refresh()  # ref_sweep wrote the oracle's state by hand
            assert_states_match(state, ref)
            loss = trainer.loss()
            assert loss == pytest.approx(oracle.loss(), rel=1e-12)
            brute = sl_loss_bruteforce(state, corpus, config)
            assert abs(loss - brute) / max(1.0, abs(brute)) <= 1e-8
            low = sum(lowrank_rows(trainer, block).sum() for block in trainer.blocks)
            assert stats["rows_lowrank"] == low
            assert stats["fallbacks_lowrank"] == stats["fallbacks_lstsq"] == 0
            # row after row in index order, update_row gives each row the bits
            # it got inside its chunk
            for block in one.blocks:
                for row in range(len(getattr(rowwise, block))):
                    one.update_row(block, row)
                one.refresh()
            for name, rows in state.blocks.items():
                assert getattr(rowwise, name).tobytes() == rows.tobytes(), name
        assert one.counts == trainer.counts

    @pytest.mark.parametrize("cause", ["rank-deficient", "residual", "eigh"])
    def test_rows_sent_dense_are_counted(self, cause, monkeypatch):
        # lam = 0 and a Gramian without e_0 (D has a zero), a tolerance no
        # residual meets, or an eigh that fails: every row the flop model
        # gives the low-rank path is solved dense, as a dense-only pass does.
        corpus = edge_case_corpus()
        lam = 0.0 if cause == "rank-deficient" else 0.3
        config = TrainConfig(kind=STL, d=6, omega0=0.05, lam=lam, seed=12)
        state = init_model_state(config, corpus)
        if cause == "rank-deficient":
            state.W[:, 0] = 0.0
        ref = state.copy()
        trainer, oracle = SLTrainer(state, corpus, config), SLTrainer(ref, corpus, config)
        eligible = int(lowrank_rows(trainer, "V").sum())
        assert 0 < eligible < corpus.n
        with warnings.catch_warnings(record=True) as caught:  # lam = 0: singular rows warn
            warnings.simplefilter("always")
            with monkeypatch.context() as dense_only:
                dense_only.setattr(sl_trainer_module, "_system_width",
                                   lambda k, d: np.full(len(k), d))
                oracle._pass("V", oracle.levels["V"])
            if cause == "residual":
                monkeypatch.setattr(sl_trainer_module, "RESIDUAL_TOL", float("nan"))
            if cause == "eigh":
                def eigh(G):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                monkeypatch.setattr(np.linalg, "eigh", eigh)
            trainer._pass("V", trainer.levels["V"])
        assert bool(caught) == (cause == "rank-deficient")
        assert trainer.counts["fallbacks_lowrank"] == eligible
        assert trainer.counts["rows_lowrank"] == 0
        assert state.V.tobytes() == ref.V.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_eigh_runs_only_for_a_chunk_with_a_low_rank_row(self, kind, monkeypatch):
        # update_row on a d x d row takes no eigenbasis; a sweep takes one of
        # each pass Gramian (V's, and the one U and W share) whose pass holds
        # a low-rank row.
        corpus = edge_case_corpus()
        config = TrainConfig(kind=kind, d=3, omega0=0.05, lam=0.3, seed=12)
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda G: calls.append(G) or eigh(G))
        for block in trainer.blocks:
            dense = np.flatnonzero(~lowrank_rows(trainer, block))
            assert len(dense) > 0
            trainer.update_row(block, int(dense[0]))
        assert calls == []
        for _ in range(2):
            trainer.sweep()
        grams = {trainer._gram(block) for block in trainer.blocks
                 if lowrank_rows(trainer, block).any()}
        assert grams and len(calls) == 2 * len(grams)

    def test_singular_rows_fall_back_one_by_one(self):
        # lam = 0: the two words on no item have A = 0; their batch is solved
        # again row by row, each singular row by least squares with a warning
        # by name, the other rows unchanged.
        corpus = edge_case_corpus()
        config = TrainConfig(kind=ZSL_TE, d=3, omega0=0.05, lam=0.0, seed=14)
        state = init_model_state(config, corpus)
        ref = state.copy()
        trainer, oracle = SLTrainer(state, corpus, config), SLTrainer(ref, corpus, config)
        assert any(12 in level and len(level) > 2 for level in trainer.levels["W"])
        with pytest.warns(UserWarning) as caught:
            stats = trainer.sweep()
        messages = sorted(str(w.message) for w in caught)
        assert messages == [f"singular system at W[{e}]; solved by least squares" for e in (12, 13)]
        assert stats["fallbacks_lstsq"] == 2
        with pytest.warns(UserWarning):
            ref_sweep(oracle)
        assert_states_match(state, ref)
        assert not np.any(state.W[12:])

    @staticmethod
    def singular_v_rows():
        # lam = 0 and a W without e_0: each V row's A has a zero row and
        # column, and its exact minimizer is the min-norm least-squares solution.
        corpus = edge_case_corpus()
        config = TrainConfig(kind=STL, d=6, omega0=0.05, lam=0.0, seed=12)
        state = init_model_state(config, corpus)
        state.W[:, 0] = 0.0
        return SLTrainer(state, corpus, config), SLTrainer(state.copy(), corpus, config)

    def test_lstsq_fallback_is_counted(self):
        trainer, oracle = self.singular_v_rows()
        ref_refresh(oracle)
        with pytest.warns(UserWarning, match=r"^singular system at V\[4\]; solved by least squares$"):
            ref_update_v(oracle, 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = trainer.update_row("V", 4)
        assert [str(w.message) for w in caught] == ["singular system at V[4]; solved by least squares"]
        assert got.tobytes() == oracle.state.V[4].tobytes() and got[0] == 0.0 and got.any()
        assert trainer.counts["fallbacks_lstsq"] == 1

    @pytest.mark.parametrize("lstsq", ["non-finite", "raises"])
    def test_a_row_still_non_finite_raises_without_a_warning(self, lstsq, monkeypatch):
        trainer, _ = self.singular_v_rows()
        before = trainer.state.V[4].tobytes()

        def fails(A, b, rcond):  # lstsq's SVD did not converge
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", fails if lstsq == "raises" else
                            lambda A, b, rcond: (np.full_like(b, np.inf),))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match=r"^non-finite update at block V, row 4$"):
                trainer.update_row("V", 4)
        assert caught == []
        assert trainer.state.V[4].tobytes() == before
        assert trainer.counts["fallbacks_lstsq"] == 0

    @pytest.mark.parametrize("d", [3, 6, 64, 200])
    def test_a_singular_system_leaves_the_others_bits(self, d):
        # the stack raises; each system is solved again alone, the singular
        # one giving NaN, the others the bits they get in the stack or alone
        rng = np.random.default_rng(d)
        A = rng.standard_normal((4, d, d))
        A = A @ A.transpose(0, 2, 1) + np.eye(d)
        b = rng.standard_normal((4, d))
        whole = sl_trainer_module._solve_stacked(A, b)
        A[2] = 0.0
        x = sl_trainer_module._solve_stacked(A, b)
        assert np.isnan(x[2]).all()
        for r in (0, 1, 3):
            assert x[r].tobytes() == whole[r].tobytes() == np.linalg.solve(A[r], b[r]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_level_schedule_invariants(self, seed):
        rng = np.random.default_rng(seed)
        corpus = make_random_corpus(rng, 40, 30, max_text=7)
        config = TrainConfig(kind=ZSL_TE, d=2)
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)
        levels = trainer.levels["W"]
        assert np.array_equal(np.sort(np.concatenate(levels)), np.arange(corpus.m))
        level_of = np.empty(corpus.m, dtype=np.int64)
        for lv, words in enumerate(levels):
            level_of[words] = lv
            assert np.all(np.diff(words) > 0)  # index order within a level
            items = np.concatenate([trainer.word_items[e] for e in words])
            assert len(np.unique(items)) == len(items), f"level {lv} shares an item"
        for i in range(corpus.n):
            holders = np.unique(corpus.word_lists[i])
            # every word comes after each lower-index word it shares an item with
            assert np.all(np.diff(level_of[holders]) > 0)


def random_terms(rng, ks, width, d):
    """Rows of ``ks`` terms padded to ``width``: term rows of norm about 1,
    weights c negative, zero (the zero-weight pairs of exclude_self_negative)
    or positive, and right-hand-side weights."""
    P, c, wb = np.zeros((len(ks), width, d)), np.zeros((len(ks), width)), np.zeros((len(ks), width))
    for r, k in enumerate(ks):
        P[r, :k] = rng.standard_normal((k, d)) / np.sqrt(d)
        c[r, :k] = rng.choice([-0.3, 0.0, 0.7, 3.0], size=k) * rng.uniform(0.5, 1.0, size=k)
        wb[r, :k] = rng.standard_normal(k)
    return P, c, wb


def dense_systems(vals, Q, lam, scale, extra, P, c, wb):
    G = (Q * vals) @ Q.T
    A = lam * np.eye(len(vals)) + scale[:, None, None] * G + \
        np.einsum("rkd,rk,rke->rde", P, c, P)
    b = np.einsum("rk,rkd->rd", wb, P) + extra
    return A, b


class TestLowRankSolve:
    D = 24

    def basis(self, rng, rank=None):
        Q = np.linalg.qr(rng.standard_normal((self.D, self.D)))[0]
        vals = rng.uniform(0.1, 3.0, self.D)
        if rank is not None:
            vals[rank:] = 0.0
        G = (Q * vals) @ Q.T
        return np.linalg.eigh((G + G.T) / 2)

    @pytest.mark.parametrize("with_extra", [False, True])
    def test_agrees_with_the_dense_solve(self, with_extra):
        rng = np.random.default_rng(21)
        d = self.D
        limit = max(k for k in range(d) if sl_trainer_module._system_width(k, d) < d)
        assert limit >= 8
        ks = np.repeat(np.arange(limit + 1), 3)  # each k with s = 0 and two s > 0
        scale = np.tile([0.0, 0.4, 2.5], limit + 1)
        vals, Q = self.basis(rng)
        for width in (limit, limit + 5):  # rows padded to their own width or beyond
            P, c, wb = random_terms(rng, ks, width, d)
            extra = rng.standard_normal((len(ks), d)) if with_extra else np.zeros((len(ks), d))
            x, ok = solve_lowrank((vals, Q), 0.8, scale, extra, P, c, wb)
            A, b = dense_systems(vals, Q, 0.8, scale, extra, P, c, wb)
            expect = np.linalg.solve(A, b[:, :, None])[:, :, 0]
            assert ok.all()
            assert np.all(np.abs(x - expect).max(axis=1) <= 1e-12 * np.abs(expect).max(axis=1))

    @pytest.mark.parametrize("d,width", [(24, 1), (24, 12), (64, 24)])
    def test_a_row_gets_the_same_bits_in_any_batch(self, d, width):
        # what lets update_row and a chunk give a row the same bits
        rng = np.random.default_rng(23)
        ks = rng.integers(0, width + 1, size=7)
        P, c, wb = random_terms(rng, ks, width, d)
        extra, scale = rng.standard_normal((len(ks), d)), rng.uniform(0.0, 2.0, len(ks))
        vals, Q = np.linalg.eigh(np.cov(rng.standard_normal((d, 3 * d))))
        whole = solve_lowrank((vals, Q), 0.5, scale, extra, P, c, wb)[0]
        for lo, hi in [(0, 1), (3, 4), (6, 7), (0, 3), (2, 7)]:
            part = solve_lowrank((vals, Q), 0.5, scale[lo:hi], extra[lo:hi], P[lo:hi], c[lo:hi],
                                 wb[lo:hi])[0]
            assert part.tobytes() == whole[lo:hi].tobytes()

    def test_flags_rows_it_cannot_solve(self, monkeypatch):
        rng = np.random.default_rng(22)
        ks = np.array([0, 1, 4, 7])
        P, c, wb = random_terms(rng, ks, 7, self.D)
        extra = rng.standard_normal((len(ks), self.D))
        scale = np.full(len(ks), 0.5)
        # lam = 0 and a rank-deficient Gramian: D has zeros
        x, ok = solve_lowrank(self.basis(rng, rank=self.D - 3), 0.0, scale, extra, P, c, wb)
        assert not ok.any()
        # a full-rank Gramian with s = 0 leaves D = lam = 0 as well
        x, ok = solve_lowrank(self.basis(rng), 0.0, np.zeros(len(ks)), extra, P, c, wb)
        assert not ok.any()
        # a residual check no row meets
        monkeypatch.setattr(sl_trainer_module, "RESIDUAL_TOL", float("nan"))
        x, ok = solve_lowrank(self.basis(rng), 1.0, scale, extra, P, c, wb)
        assert not ok.any()


# Per kind and task1_encoded: (name, block, encoded) of each task, and the
# blocks a sweep solves, in order.
TASKS = {
    (STL, False): ([("task1", "W", False)], ["V", "W"]),
    (STL, True): ([("task1", "W", True)], ["V", "W"]),
    (ZSL_ME, False): ([("task1", "W", False), ("task2", "U", False)], ["V", "U", "W"]),
    (ZSL_ME, True): ([("task1", "W", True), ("task2", "U", False)], ["V", "U", "W"]),
    (ZSL_TE, False): ([("task2", "W", True)], ["V", "W"]),
    (ZSL_TE, True): ([("task2", "W", True)], ["V", "W"]),
}


class TestTasks:
    @pytest.mark.parametrize("kind", [STL, ZSL_TE])
    def test_update_row_refuses_a_block_the_kind_lacks(self, kind):
        corpus = edge_case_corpus()
        config = TrainConfig(kind=kind, d=2)
        state = init_model_state(config, corpus)
        before = state.copy()
        with pytest.raises(ConfigError) as info:
            SLTrainer(state, corpus, config).update_row("U", 0)
        assert str(info.value) == f"no block 'U' for kind {kind!r}"
        assert state.U is None
        assert all(np.array_equal(b, getattr(before, name)) for name, b in state.blocks.items())

    @pytest.mark.parametrize("kind,task1_encoded", sorted(TASKS))
    def test_task_table_and_sweep_order(self, kind, task1_encoded, monkeypatch):
        corpus = edge_case_corpus()
        config = TrainConfig(kind=kind, d=3, seed=16, task1_encoded=task1_encoded)
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)
        tasks, blocks = TASKS[kind, task1_encoded]
        assert [(t.name, t.block, t.encoded) for t in trainer.tasks] == tasks
        solved = []
        monkeypatch.setattr(trainer, "_pass", lambda block, levels: solved.append(block))
        trainer.sweep()
        assert solved == blocks


class TestWorkingMemory:
    # From the small corpus to the large one the graph's nnz grows 8x, n + m 2x.
    @pytest.mark.parametrize("n, m, degree", [(150, 60, 60), (300, 120, 240)],
                             ids=["small", "large"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_array_grows_with_nnz_times_d(self, kind, n, m, degree):
        corpus = make_random_corpus(np.random.default_rng(7), n, m, max_text=6,
                                    max_degree=degree, max_neighbors=degree)
        config = TrainConfig(kind=kind, d=32, sweeps=1, seed=3)
        nnz = corpus.graph.nnz
        # A few budgets of slices, plus rows of the blocks and scalars per pair.
        bound = 8 * (4 * corpus_module.CHUNK_FLOATS + 8 * (n + m) * config.d + 4 * nnz)
        if degree == 240:  # one (pairs x d) float64 array would break the bound
            assert 8 * nnz * config.d > bound
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)
        assert peak_above_start(trainer.loss) <= bound
        assert peak_above_start(lambda: train_sl_model(corpus, config)) <= bound

    def test_lowrank_batches_pad_rows_to_their_own_width(self):
        # One level of 8000 rows without terms, 2000 one-term rows and one
        # row near the flop-model limit. Padded to the chunk's widest row, the
        # one-term rows would make (2000 x 16 x d) float64 arrays, 8 MiB each;
        # budgeted by their terms alone, the rows without terms would all
        # share one chunk and its (8000 x d) arrays.
        n, m, d = 10_001, 200, 32
        words = [[]] * 8000 + [[i % m] for i in range(2000)] + [list(range(16))]
        corpus = Corpus([f"i{k}" for k in range(n)], [f"w{k}" for k in range(m)],
                        Rows.from_lists(words), empty_graph(n), {})
        config = TrainConfig(kind=STL, d=d, sweeps=1, seed=3)
        trainer = SLTrainer(init_model_state(config, corpus), corpus, config)
        width, levels = trainer.plan["V"][0], trainer.levels["V"]
        assert len(levels) == 1 and np.array_equal(np.bincount(width), [8000, 2000] + [0] * 14 + [1])
        assert lowrank_rows(trainer, "V").all()
        assert sl_trainer_module._system_width(17, d) == d
        peak = peak_above_start(lambda: trainer._pass("V", levels))
        assert peak <= 8 * 6 * corpus_module.CHUNK_FLOATS
        assert trainer.counts["rows_lowrank"] == n
        bound = 8 * (4 * corpus_module.CHUNK_FLOATS + 8 * (n + m) * d)  # as for any corpus above
        assert peak_above_start(lambda: train_sl_model(corpus, config)) <= bound

    @pytest.mark.parametrize("task1_encoded", [False, True])
    def test_the_trainer_holds_no_copy_of_a_block(self, task1_encoded):
        # W dominates: 20,000 words against 300 items, so a float64 copy of W
        # (5.1 MB) outweighs all else the trainer keeps.
        m, d = 20_000, 32
        corpus = make_random_corpus(np.random.default_rng(5), 300, m, max_text=8)
        config = TrainConfig(kind=STL, d=d, sweeps=1, seed=3, task1_encoded=task1_encoded)
        state = init_model_state(config, corpus)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            trainer = SLTrainer(state, corpus, config)
            trainer.sweep()
            trainer.loss()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert trainer.state is state
        assert retained < 8 * m * d
