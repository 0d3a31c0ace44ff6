"""End-to-end acceptance checks.

Each test covers one release gate and prints a single PASS/FAIL line with the
measured quantity so the run log doubles as a report. Fixtures with frozen
numbers (trend margins, ensemble recalls) were calibrated once and pinned.
"""
import math
import time
import warnings

import numpy as np
import pytest

from tests.conftest import make_random_corpus
from zsretrieval.corpus import Corpus, CorrelationGraph, Rows
from zsretrieval.encoder import rescale_item_norms
from zsretrieval.evaluation import (
    LabeledSet,
    ensemble_recall_at_k,
    pooled_recall,
    recall_at_k,
    reconstruction_recall,
)
from zsretrieval.retrieval import retrieve_topk
from zsretrieval.sl_trainer import (
    SLTrainer,
    cd_sweep,
    sl_loss_bruteforce,
    sl_loss_efficient,
    train_sl_model,
)
from zsretrieval.smc import SMCConfig, batch_gradients, ce_loss_exact, train_smc
from zsretrieval.store import (
    SMC,
    STL,
    ZSL_ME,
    ZSL_TE,
    ModelState,
    TrainConfig,
    init_model_state,
    load_model,
    save_model,
    warm_start_extend,
)
from zsretrieval.synthetic import ClusterSpec, make_synthetic_transfer_corpus

KINDS = [STL, ZSL_ME, ZSL_TE]


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _random_config(rng, kind, trial):
    return TrainConfig(
        kind=kind, d=int(rng.integers(1, 9)),
        omega0=float(rng.choice([0.001, 0.1, 1.0])),
        lam=float(rng.choice([0.0, 4.0])),
        use_weights=bool(rng.integers(2)),
        weight_negatives=bool(rng.integers(2)),
        exclude_self_negative=bool(rng.integers(2)),
        task1_encoded=bool(rng.integers(2)),
        seed=trial)


def two_item_fixture():
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


def test_criterion_01_loss_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    state, corpus, config = two_item_fixture()
    brute = sl_loss_bruteforce(state, corpus, config)
    assert brute == pytest.approx(19.9, abs=1e-12)
    assert sl_loss_efficient(state, corpus, config) == pytest.approx(19.9, abs=1e-12)
    rng = np.random.default_rng(2024)
    worst = 0.0
    trials = 0
    for kind in KINDS:
        for trial in range(70):
            n, m = int(rng.integers(2, 41)), int(rng.integers(2, 41))
            corpus = make_random_corpus(rng, n, m)
            config = _random_config(rng, kind, trial)
            st = init_model_state(config, corpus)
            b = sl_loss_bruteforce(st, corpus, config)
            e = sl_loss_efficient(st, corpus, config)
            worst = max(worst, abs(e - b) / max(1.0, abs(b)))
            trials += 1
    elapsed = time.perf_counter() - t0
    _report(capsys, "criterion 01 loss oracle equivalence",
            worst <= 1e-8 and elapsed < 60.0 and trials >= 200,
            f"{trials + 2} instances, worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_cd_monotonicity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = -np.inf
    for trial in range(20):
        n, m = int(rng.integers(4, 20)), int(rng.integers(3, 12))
        corpus = make_random_corpus(rng, n, m)
        for kind in KINDS:
            config = TrainConfig(
                kind=kind, d=int(rng.integers(2, 6)),
                omega0=float(rng.choice([0.01, 0.1, 1.0])),
                lam=float(rng.choice([0.01, 0.5, 4.0])), seed=trial)
            state = init_model_state(config, corpus)
            prev = sl_loss_efficient(state, corpus, config)
            for _ in range(10):
                cd_sweep(state, corpus, config)
                cur = sl_loss_efficient(state, corpus, config)
                worst = max(worst, (cur - prev) / max(1.0, abs(prev)))
                prev = cur
    elapsed = time.perf_counter() - t0
    _report(capsys, "criterion 02 cd monotonicity",
            worst <= 1e-9 and elapsed < 120.0,
            f"20 instances x 3 kinds x 10 sweeps, worst relative increase "
            f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_row_update_optimality(capsys):
    rng = np.random.default_rng(17)
    step = 1e-5
    worst_grad = 0.0
    worst_drop = 0.0
    for kind in KINDS:
        corpus = make_random_corpus(rng, 8, 5)
        config = TrainConfig(kind=kind, d=3, omega0=0.1, lam=0.7, seed=21)
        state = init_model_state(config, corpus)
        trainer = SLTrainer(state, corpus, config)
        blocks = ["V"] + (["U"] if kind == ZSL_ME else []) + \
            (["W"] if trainer._w_has_terms() else [])
        for block in blocks:
            for row in (0, 3):
                trainer.refresh()
                trainer.update_row(block, row)
                base = sl_loss_bruteforce(state, corpus, config)
                mat = getattr(state, block)
                saved = mat[row].copy()
                grad = np.zeros(3)
                for j in range(3):
                    mat[row] = saved
                    mat[row, j] = saved[j] + step
                    hi = sl_loss_bruteforce(state, corpus, config)
                    mat[row, j] = saved[j] - step
                    lo = sl_loss_bruteforce(state, corpus, config)
                    grad[j] = (hi - lo) / (2 * step)
                worst_grad = max(worst_grad, float(np.max(np.abs(grad))))
                for _ in range(20):
                    delta = rng.standard_normal(3)
                    delta *= 1e-3 / np.linalg.norm(delta)
                    mat[row] = saved + delta
                    drop = base - sl_loss_bruteforce(state, corpus, config)
                    worst_drop = max(worst_drop, drop)
                mat[row] = saved
    _report(capsys, "criterion 03 row update optimality",
            worst_grad <= 1e-5 and worst_drop <= 1e-10,
            f"max fd gradient norm {worst_grad:.2e}, "
            f"best probe improvement {worst_drop:.2e}")


def test_criterion_04_semantic_transfer_trend(capsys):
    t0 = time.perf_counter()
    spec = ClusterSpec(n_pairs=8, background_words=6, background_repeats=8,
                       text_repeats=1)
    corpus, heldout = make_synthetic_transfer_corpus(123, 128, spec)
    recon = {}
    held = {}
    for kind in KINDS:
        config = TrainConfig(kind=kind, d=6, omega0=0.1, lam=0.5, sweeps=10, seed=5)
        state, _ = train_sl_model(corpus, config)
        recon[kind] = reconstruction_recall(state, corpus.graph).mean
        held[kind] = recall_at_k(state, heldout, 10, mode="cosine").mean
    margin = held[ZSL_TE] - held[STL]
    elapsed = time.perf_counter() - t0
    ok = (recon[ZSL_TE] > recon[ZSL_ME] > recon[STL]
          and margin >= 0.3  # frozen at calibration (observed 0.539 vs 0.0)
          and elapsed < 300.0)
    _report(capsys, "criterion 04 semantic transfer trend", ok,
            f"recon stl/me/te {recon[STL]:.3f}/{recon[ZSL_ME]:.3f}/"
            f"{recon[ZSL_TE]:.3f}, heldout@10 margin {margin:.3f}, {elapsed:.1f}s")


def test_criterion_05_random_baseline_sanity(capsys):
    t0 = time.perf_counter()
    spec = ClusterSpec(n_pairs=100, background_words=10, background_repeats=2,
                       text_repeats=2)
    corpus, _ = make_synthetic_transfer_corpus(42, 10_000, spec)
    ks = np.array([len(nb) for nb in corpus.graph.neighbors], dtype=np.float64)
    analytic = float(np.mean(ks[ks > 0] / (corpus.n - 1)))
    config = TrainConfig(kind=ZSL_TE, d=16, omega0=0.01, lam=0.5, sweeps=3, seed=9)
    random_mean = reconstruction_recall(init_model_state(config, corpus),
                                        corpus.graph).mean
    state, _ = train_sl_model(corpus, config)
    trained_mean = reconstruction_recall(state, corpus.graph).mean
    ratio = random_mean / analytic
    lift = trained_mean / analytic
    elapsed = time.perf_counter() - t0
    _report(capsys, "criterion 05 random baseline sanity",
            (1 / 3) <= ratio <= 3.0 and lift >= 50.0,
            f"n=10000: random {random_mean:.2e} vs analytic {analytic:.2e} "
            f"(ratio {ratio:.2f}), trained lift {lift:.0f}x, {elapsed:.1f}s")


def test_criterion_06_ensemble_trend(capsys):
    t0 = time.perf_counter()
    spec = ClusterSpec(n_pairs=6, background_words=4, background_repeats=2,
                       text_repeats=2)
    corpus, _ = make_synthetic_transfer_corpus(77, 60, spec)
    topic_of = {i: tuple(iid.split("_")[1:3]) for i, iid in enumerate(corpus.item_ids)}
    by_topic: dict = {}
    for i, tp in topic_of.items():
        by_topic.setdefault(tp, []).append(i)
    # the classifier only sees same-cluster pairs; cross-cluster relevance is
    # recoverable through the graph alone
    smc_pairs = [( [int(w) for w in corpus.word_lists[i]], j)
                 for i in range(corpus.n) for j in by_topic[topic_of[i]]]
    smc = train_smc(smc_pairs, corpus,
                    SMCConfig(d=16, negatives=30, batch_size=64,
                              learning_rate=0.5, steps=600, seed=3))
    zsl, _ = train_sl_model(corpus, TrainConfig(kind=ZSL_TE, d=8, omega0=0.05,
                                                lam=0.5, sweeps=10, seed=11))
    vocab_index = {w: i for i, w in enumerate(corpus.vocab)}
    eval_pairs = []
    for p in range(spec.n_pairs):
        for c in range(2):
            w = vocab_index[f"syn{p}_c{c}"]
            for c2 in range(2):
                for j in by_topic[(f"c{c2}", f"p{p}")]:
                    eval_pairs.append(([w], j))
    K = 10
    r_smc = recall_at_k(smc, eval_pairs, K, mode="dot").mean
    r_ens = ensemble_recall_at_k(smc, zsl, eval_pairs, K, head_len=K // 2).mean
    elapsed = time.perf_counter() - t0
    _report(capsys, "criterion 06 ensemble trend",
            r_ens >= r_smc and elapsed < 300.0,
            f"recall@{K}: smc {r_smc:.4f}, interleaved {r_ens:.4f} "
            f"(head {K // 2}), {elapsed:.1f}s")


def test_criterion_07_rescaling_properties(capsys):
    rng = np.random.default_rng(31)
    n, d = 40, 4
    target = rng.standard_normal((n, d)).astype(np.float32)
    source = (rng.standard_normal((n, d))
              * np.exp(rng.normal(0, 1.5, size=(n, 1)))).astype(np.float32)
    rescaled, skipped = rescale_item_norms(target, source)
    assert skipped.size == 0
    invariant = True
    for _ in range(25):
        q = rng.standard_normal(d)
        a = retrieve_topk(q, target, 10, "cosine").items.tolist()
        b = retrieve_topk(q, rescaled, 10, "cosine").items.tolist()
        invariant = invariant and a == b
    # popularity-skewed fixture: item 0 slightly off-query but hugely popular
    skew_t = np.array([[0.9, 0.45], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    skew_s = np.array([[40.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    skew_r, _ = rescale_item_norms(skew_t, skew_s)
    q = np.array([1.0, 0.0])
    cos_top = retrieve_topk(q, skew_t, 1, "cosine").items.tolist()
    dot_top = retrieve_topk(q, skew_r, 1, "dot").items.tolist()
    differs = cos_top != dot_top
    _report(capsys, "criterion 07 rescaling properties",
            invariant and differs,
            f"cosine top-10 invariant on 25 queries: {invariant}; skewed "
            f"fixture cosine picks {cos_top[0]}, rescaled dot picks {dot_top[0]}")


def test_criterion_08_metric_correctness(capsys):
    rng = np.random.default_rng(99)

    def naive_topk(scores, k, exclude=()):
        order = sorted((i for i in range(len(scores)) if i not in exclude
                        and scores[i] > -np.inf),
                       key=lambda i: (-scores[i], i))
        return set(order[:k])

    mismatches = 0
    for trial in range(100):
        n, m, d = int(rng.integers(2, 9)), int(rng.integers(2, 5)), 2
        W = rng.standard_normal((m, d)).astype(np.float32)
        V = rng.standard_normal((n, d)).astype(np.float32)
        state = ModelState(ZSL_TE, d, W, V, None, seed=0)
        corpus = make_random_corpus(rng, n, m)
        V64 = V.astype(np.float64)
        norms = np.linalg.norm(V64, axis=1)

        rep = reconstruction_recall(state, corpus.graph, "cosine")
        expect = []
        for i in range(n):
            true = set(corpus.graph.neighbors[i].tolist())
            if not true:
                continue
            scores = [V64[j] @ V64[i] / (norms[j] * norms[i])
                      if norms[j] > 0 else -np.inf for j in range(n)]
            pred = naive_topk(scores, len(true), exclude={i})
            expect.append(len(pred & true) / len(true))
        if rep.per_query != expect:
            mismatches += 1

        queries = [(rng.integers(0, m, size=2).tolist(),
                    set(rng.choice(n, size=min(2, n), replace=False).tolist()))
                   for _ in range(3)]
        labeled = LabeledSet(queries)
        rep = pooled_recall(state, labeled, "dot")
        pool = sorted(labeled.pool)
        expect = []
        for words, rel in queries:
            q = W.astype(np.float64)[words].mean(axis=0)
            scores = [float(V64[j] @ q) for j in pool]
            pred = {pool[i] for i in naive_topk(scores, len(rel))}
            expect.append(len(pred & rel) / len(rel))
        if rep.per_query != expect:
            mismatches += 1

        pairs = [(rng.integers(0, m, size=2).tolist(), int(rng.integers(0, n)))
                 for _ in range(4)]
        K = int(rng.integers(1, n + 1))
        rep = recall_at_k(state, pairs, K, "dot")
        expect = []
        for words, target in pairs:
            q = W.astype(np.float64)[words].mean(axis=0)
            scores = [float(V64[j] @ q) for j in range(n)]
            expect.append(float(target in naive_topk(scores, K)))
        if rep.per_query != expect:
            mismatches += 1

    mono_state = ModelState(ZSL_TE, 2,
                            rng.standard_normal((4, 2)).astype(np.float32),
                            rng.standard_normal((12, 2)).astype(np.float32),
                            None, seed=0)
    mono_pairs = [(rng.integers(0, 4, size=2).tolist(), int(rng.integers(0, 12)))
                  for _ in range(10)]
    vals = [recall_at_k(mono_state, mono_pairs, K, "dot").mean
            for K in range(1, 13)]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    _report(capsys, "criterion 08 metric correctness",
            mismatches == 0 and monotone,
            f"100 instances x 3 metrics, {mismatches} oracle mismatches, "
            f"recall@K monotone: {monotone}")


def test_criterion_09_determinism_and_persistence(capsys, tmp_path, rng):
    corpus = make_random_corpus(rng, 10, 6)
    config = TrainConfig(kind=ZSL_ME, d=4, omega0=0.1, lam=0.5, sweeps=3, seed=42)
    a, _ = train_sl_model(corpus, config)
    b, _ = train_sl_model(corpus, config)
    save_model(a, tmp_path / "a", corpus)
    save_model(b, tmp_path / "b", corpus)
    dirs_identical = True
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    dirs_identical = files_a == files_b and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in files_a)

    loaded = load_model(tmp_path / "a")
    roundtrip = (np.array_equal(loaded.W, a.W) and np.array_equal(loaded.V, a.V)
                 and np.array_equal(loaded.U, a.U)
                 and loaded.W.tobytes() == a.W.tobytes())

    grown = make_random_corpus(np.random.default_rng(7), 14, 8)
    grown.item_ids[:10] = corpus.item_ids
    grown.vocab[:6] = corpus.vocab
    extended = warm_start_extend(a, corpus, grown)
    retained = (np.array_equal(extended.V[:10], a.V)
                and np.array_equal(extended.W[:6], a.W)
                and np.array_equal(extended.U[:10], a.U))

    trainer = SLTrainer(extended, grown, config)
    before = trainer.loss()
    for _ in range(2):
        trainer.sweep()
    after = trainer.loss()
    non_increasing = after <= before + 1e-9 * max(1.0, abs(before))
    _report(capsys, "criterion 09 determinism and persistence",
            dirs_identical and roundtrip and retained and non_increasing,
            f"dirs bit-identical: {dirs_identical}, roundtrip exact: {roundtrip}, "
            f"retained rows exact: {retained}, refresh loss {before:.4g} -> "
            f"{after:.4g}")


def test_criterion_10_smc_sanity(capsys, rng):
    n, m, d = 8, 5, 3
    W = rng.standard_normal((m, d))
    V = rng.standard_normal((n, d))
    queries = [np.array([0, 2]), np.array([1]), np.array([3, 4])]
    targets = np.array([2, 6, 0])
    cands = []
    logqs = []
    for t in targets:
        others = np.array([j for j in range(n) if j != t])
        cands.append(np.concatenate([[t], others]))
        logqs.append(np.zeros(n))
    gW, gV, _ = batch_gradients(W, V, queries, targets, cands, logqs)

    eW = np.zeros_like(W)
    eV = np.zeros_like(V)
    for widx, t in zip(queries, targets):
        q = W[widx].mean(axis=0)
        logits = V @ q
        p = np.exp(logits - logits.max())
        p /= p.sum()
        dlogit = p.copy()
        dlogit[t] -= 1.0
        eV += dlogit[:, None] * q[None, :]
        dq = dlogit @ V
        for w in widx:
            eW[w] += dq / len(widx)
    eW /= len(queries)
    eV /= len(queries)
    grad_err = max(
        max(float(np.max(np.abs(g - eW[w]))) for w, g in gW.items()),
        max(float(np.max(np.abs(g - eV[c]))) for c, g in gV.items()))

    uniform = ModelState(SMC, d, np.zeros((m, d), dtype=np.float32),
                         np.zeros((n, d), dtype=np.float32), None, seed=0)
    ce = ce_loss_exact(uniform, [([0], 2), ([1, 4], 5)])
    ce_err = abs(ce - math.log(n))
    _report(capsys, "criterion 10 smc sanity",
            grad_err <= 1e-6 and ce_err <= 1e-12,
            f"full-candidate vs exact softmax gradient max err {grad_err:.2e}, "
            f"uniform ce vs ln n err {ce_err:.2e}")
