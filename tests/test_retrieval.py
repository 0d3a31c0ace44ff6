"""Top-k retrieval semantics and list interleaving."""
import numpy as np
import pytest

from tests.conftest import peak_above_start
from zsretrieval import corpus as corpus_module
from zsretrieval import retrieval
from zsretrieval.binio import read_matrix, write_matrix
from zsretrieval.corpus import CorrelationGraph, Rows, budget_rows, build_corpus
from zsretrieval.encoder import encode_bow
from zsretrieval.errors import ConfigError, EncodeError, ScoreError
from zsretrieval.evaluation import reconstruction_recall
from zsretrieval.retrieval import (
    RankedList,
    ensemble_interleave,
    retrieve_topk,
    search,
)
from zsretrieval.store import ModelState, TrainConfig, init_model_state, load_model, save_model


def ranked(items, scores=None):
    items = np.array(items, dtype=np.int64)
    if scores is None:
        scores = -np.arange(len(items), dtype=np.float64)
    return RankedList(items, np.asarray(scores, dtype=np.float64),
                      k=len(items), score_mode="dot")


def small_ints(rng, shape):
    """Integer entries in [-2, 2]: exact scores, many exact ties, zero rows."""
    return rng.integers(-2, 3, size=shape).astype(np.float32)


def sort_all_oracle(q, V, mode):
    """Every candidate of a float64 scan of one item at a time, by (score
    desc, index asc): a zero-norm item under cosine, and a score of -inf or
    NaN, is no candidate."""
    scored = []
    with np.errstate(all="ignore"):
        for i in range(len(V)):
            v = V[i].astype(np.float64)
            if mode == "cosine":
                nv = np.linalg.norm(v)
                if nv == 0.0:
                    continue
                s = float(v @ q) / (nv * np.linalg.norm(q))
            else:
                s = float(v @ q)
            if s > -np.inf:
                scored.append((-s, i))
    scored.sort()
    return [i for _, i in scored]


def fuzz_block(rng):
    """A random item block and queries with what the float32 filter must get
    past: near-ties inside float32 resolution, planted duplicates and zero
    rows, one huge-norm row, values beyond float32's range or subnormal, and
    NaN or inf entries. A float64 block may leave float32's range."""
    n, d, wide = int(rng.integers(1, 40)), int(rng.integers(1, 9)), bool(rng.integers(2))
    V, Q = rng.standard_normal((n, d)), rng.standard_normal((4, d))
    near, dup, zero, huge, scale_v, scale_q, bad = rng.random(7) < 0.3
    if near:  # far above float64's last place, where two summation orders may disagree
        V = V[:1] + rng.choice([1e-6, 1e-8]) * rng.standard_normal((n, d))
    if dup:
        V[rng.integers(0, n, size=n // 3 + 1)] = V[int(rng.integers(n))]
    if zero:
        V[rng.integers(0, n, size=n // 4 + 1)] = 0.0
    # Powers of two scale exactly, so a scaled duplicate stays a tie under cosine.
    if huge:
        V[int(rng.integers(n))] *= 2.0 ** 20
    scales = 2.0 ** np.array([-1000, -530, -150, 130, 330] if wide else [-133, -149, 100])
    if scale_v:
        V *= rng.choice(scales)
    if scale_q:
        Q *= rng.choice(scales)
    if bad:
        V[int(rng.integers(n)), int(rng.integers(d))] = rng.choice([np.nan, np.inf, -np.inf])
    with np.errstate(over="ignore"):
        return V.astype(np.float64 if wide else np.float32), Q


def fuzz_wide_block(rng):
    """A block of 600 to 3000 items, wider than the filter's item groups
    (items j, j + G, j + 2G, ... with G = 512 for k up to 128, 1024 for k
    256), and queries near one direction u. The best items for u share one
    residue class mod 1024, the next best the rest of its class mod 512;
    copies of a best item sit in other classes; whole classes mod 512 are
    zero rows, at times all but a few dozen, so that fewer than k groups
    hold a live item. Powers of two may scale V and Q, and one entry may be
    NaN or inf."""
    n, d, wide = int(rng.integers(600, 3001)), int(rng.integers(2, 9)), bool(rng.integers(2))
    u = rng.standard_normal(d)
    V, Q = rng.standard_normal((n, d)), u + 0.2 * rng.standard_normal((8, d))
    c = int(rng.integers(512))
    V[c::1024] = 4 * (u + 1e-3 * rng.standard_normal((len(V[c::1024]), d)))
    V[c + 512::1024] = 3 * (u + 1e-2 * rng.standard_normal((len(V[c + 512::1024]), d)))
    V[rng.integers(0, n, size=n // 50 + 1)] = V[c]
    others = np.delete(np.arange(512), c)
    live = (rng.choice(others, size=int(rng.integers(20, 120)), replace=False)
            if rng.random() < 0.25 else others)
    for z in np.setdiff1d(others, live).tolist() + rng.choice(others, size=3).tolist():
        V[z::512] = 0.0
    scale_v, scale_q, bad = rng.random(3) < 0.2
    if scale_v:
        V *= 2.0 ** rng.choice([-530, 330] if wide else [-140, 100])
    if scale_q:
        Q *= 2.0 ** rng.choice([-1000, -140, 130, 330])
    if bad:
        V[int(rng.integers(n)), int(rng.integers(d))] = rng.choice([np.nan, np.inf, -np.inf])
    with np.errstate(over="ignore"):
        return V.astype(np.float64 if wide else np.float32), Q


class TestRetrieveTopK:
    def test_tie_broken_by_index(self):
        V = np.array([[0.9], [0.1], [0.9]], dtype=np.float32)
        out = retrieve_topk(np.array([1.0]), V, 2, "dot")
        assert out.items.tolist() == [0, 2]
        assert out.scores.tolist() == pytest.approx([0.9, 0.9])

    def test_short_flag_when_k_exceeds_candidates(self):
        V = np.array([[1.0], [2.0]], dtype=np.float32)
        out = retrieve_topk(np.array([1.0]), V, 5, "dot")
        assert out.items.tolist() == [1, 0]
        assert out.short and out.k == 5
        assert not retrieve_topk(np.array([1.0]), V, 2, "dot").short

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
            k = int(rng.integers(1, n + 3))  # may exceed the candidates
            out = retrieve_topk(q, V, k, mode)
            expect = sort_all_oracle(q, V, mode)
            assert out.items.tolist() == expect[:k]
            assert out.short == (len(expect) < k)


INT64_MAX = np.iinfo(np.int64).max
K_REFUSED = r"^k must be an integer >= 1, or a list of one per query$"


class TestKRule:
    """retrieve_topk and search read k by one rule: an integer >= 1, Python
    or numpy but not bool; above the int64 range it reads as the maximum."""

    W, V = np.eye(2, dtype=np.float32), np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), True, np.bool_(True), "2", None,
                                   0, -1, np.int64(0), -10 ** 20],
                             ids=repr)
    def test_refused_by_both(self, k):
        with pytest.raises(ConfigError, match=K_REFUSED):
            retrieve_topk(np.ones(2), self.V, k)
        with pytest.raises(ConfigError, match=K_REFUSED):
            search([[0], [1]], self.W, self.V, k)

    @pytest.mark.parametrize("k, read", [(2, 2), (np.int32(2), 2), (10 ** 20, INT64_MAX),
                                         (np.uint64(2 ** 64 - 1), INT64_MAX)], ids=repr)
    def test_read_alike_by_both(self, k, read):
        one = retrieve_topk(np.array([1.0, 0.0]), self.V, k)
        [other] = search([[0]], self.W, self.V, k)
        assert one.k == other.k == read and type(one.k) is int
        assert one.items.tolist() == other.items.tolist()

    def test_one_per_query(self):
        got = search([[0], [1]], self.W, self.V, [1, np.int64(10 ** 18)])
        assert [r.k for r in got] == [1, 10 ** 18]
        with pytest.raises(ConfigError, match=K_REFUSED):
            search([[0], [1]], self.W, self.V, [1, 2.0])
        for k in ([1, 2, 3], [[1], [2]], [[1, 2], [3]]):
            with pytest.raises(ConfigError, match=K_REFUSED):
                search([[0], [1]], self.W, self.V, k)


class TestFilterFuzz:
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_matches_the_float64_scan(self, mode, rng):
        for _ in range(600):
            V, Q = fuzz_block(rng)
            ks = rng.integers(1, len(V) + 3, size=len(Q)).tolist()
            # Each query is a one-word query over the rows of Q: its encoding is the row.
            blocked = search([[i] for i in range(len(Q))], Q, V, ks, mode)
            for q, k, in_block in zip(Q, ks, blocked):
                try:
                    got = retrieve_topk(q, V, k, mode)
                except ScoreError as exc:
                    assert in_block == str(exc)
                    continue
                expect = sort_all_oracle(q, V, mode)
                assert got.items.tolist() == expect[:k]
                assert got.short == (len(expect) < k)
                assert np.all(got.scores > -np.inf)  # a -inf or NaN score is no candidate
                assert same_ranking(in_block, got)

    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_wide_block_matches_the_float64_scan(self, mode, rng):
        for _ in range(20):
            V, Q = fuzz_wide_block(rng)
            n, top = len(V), int(rng.choice([128, 256]))
            # One block whose largest k sets G to 512 or 1024, one of full rankings (G = n).
            grouped = [top, 1] + rng.integers(1, top + 1, size=len(Q) - 2).tolist()
            full = [n, n + 5, 10 ** 18, n - int(rng.integers(1, 80)), 1, 2, 30, top]
            # Each query is a one-word query over the rows of Q: its encoding is the row.
            blocks = [(ks, search([[i] for i in range(len(Q))], Q, V, ks, mode))
                      for ks in (grouped, full)]
            for i, q in enumerate(Q):
                expect = sort_all_oracle(q, V, mode)
                for ks, blocked in blocks:
                    try:
                        got = retrieve_topk(q, V, ks[i], mode)
                    except ScoreError as exc:
                        assert blocked[i] == str(exc)
                        continue
                    assert got.items.tolist() == expect[:ks[i]]
                    assert got.short == (len(expect) < ks[i])
                    assert same_ranking(blocked[i], got)

    def test_each_row_rescores_only_what_its_own_k_admits(self, monkeypatch):
        # Item i scores i under dot. With k <= 128, G = 512: group j holds items
        # j, j + 512, ..., and the last 300 items fold into groups 0 to 299, so
        # a row's k-th smallest group minimum of -f is -(n - k) for k <= 300.
        n, ks = 2048 + 300, [3, 40, 1, 128]
        V = np.arange(n, dtype=np.float32)[:, None]
        rescored, topk = [], retrieval._topk

        def spy(owners, scores, row_ks, counts):
            assert counts.tolist() == np.bincount(owners, minlength=len(row_ks)).tolist()
            rescored.extend(counts.tolist())
            return topk(owners, scores, row_ks, counts)

        monkeypatch.setattr(retrieval, "_topk", spy)
        got = search([[0]] * len(ks), np.ones((1, 1)), V, ks, "dot")
        assert rescored == ks
        assert [r.items.tolist() for r in got] == [list(range(n - 1, n - 1 - k, -1)) for k in ks]


def score_block_rows(n, monkeypatch, chunk_floats):
    """Patch the budget to ``chunk_floats`` numbers and return how many query
    rows one float32 score block then holds: rows of n float32 numbers,
    n/2 float64 numbers wide."""
    monkeypatch.setattr(corpus_module, "CHUNK_FLOATS", chunk_floats)
    return budget_rows((n + 1) // 2)


class TestSearch:
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_matches_per_query_retrieval(self, mode, rng, monkeypatch):
        for chunk_floats, rows in ((1, 1), (200, 10)):  # blocks of one query row, and of ten
            assert score_block_rows(40, monkeypatch, chunk_floats) == rows
            self.check_blocks(mode, rows, rng)

    @staticmethod
    def check_blocks(mode, rows, rng):
        n, m, d = 40, 30, 3
        V = small_ints(rng, (n, d))
        V[5:10] = V[0]  # duplicate items
        V[10:13] = 0.0  # zero-norm items
        W = small_ints(rng, (m, d))
        W[0] = 0.0  # a zero-norm query under cosine
        # 1, 2 or 4 words: the mean stays exact, so exact ties stay ties.
        queries = [rng.integers(1, m, size=int(rng.choice([1, 2, 4]))).tolist()
                   for _ in range(2 * rows + 50)]
        queries[rows + 3] = queries[3]  # one query in two blocks
        queries[7] = []  # skipped, inside a block but for one-row blocks
        queries[rows + 9] = [0, 0]
        ks = rng.integers(1, n + 5, size=len(queries)).tolist()
        ks[rows + 3] = ks[3]
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
            assert same_ranking(got, want) and got.k == k
        assert results[7] == "no in-vocabulary words to encode"
        assert same_ranking(results[3], results[rows + 3])
        if mode == "cosine":
            assert results[rows + 9] == "cosine undefined for zero-norm query"

    def test_rejects_bad_k_and_mode(self):
        W, V = np.ones((2, 2), dtype=np.float32), np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ConfigError):
            search([[0], [1]], W, V, [1, 0], "dot")
        with pytest.raises(ScoreError):
            search([[0]], W, V, 1, "euclid")

    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_word_index_out_of_range_is_skipped(self, mode):
        W, V = np.eye(3, dtype=np.float32), np.eye(3, dtype=np.float32)
        out = search([[0], [1, -1], [3], [2]], W, V, 1, mode)
        assert out[1:3] == ["word index out of vocabulary range"] * 2
        assert [out[0].items.tolist(), out[3].items.tolist()] == [[0], [2]]

    def test_skip_reasons_follow_the_one_query_rule(self):
        # Per query: no word before a word out of range, as encode_bow refuses it.
        rng = np.random.default_rng(5)
        W, V = rng.standard_normal((4, 2)).astype(np.float32), np.eye(2, dtype=np.float32)
        queries = [rng.integers(-2, 6, size=int(rng.integers(0, 4))).tolist() for _ in range(200)]
        for words, got in zip(queries, search(queries, W, V, 1, "dot")):
            if not words or min(words) < 0 or max(words) >= len(W):
                want = ("word index out of vocabulary range" if words
                        else "no in-vocabulary words to encode")
                assert got == want
                with pytest.raises(EncodeError, match=f"^{want}$"):
                    encode_bow(words, W)
            else:
                want = retrieve_topk(encode_bow(words, W), V, 1, "dot")
                assert got.items.tolist() == want.items.tolist()

    def test_empty_item_matrix_skips_every_query(self):
        W = np.ones((2, 2), dtype=np.float32)
        out = search([[0], []], W, np.zeros((0, 2), dtype=np.float32), 3, "dot")
        assert out == ["empty item matrix", "no in-vocabulary words to encode"]


def loaded(tmp_path, V):
    """V written as a model block and read back: read-only over its bytes."""
    write_matrix(tmp_path / "V.bin", b"ZSRMAT_V", V)
    return read_matrix(tmp_path / "V.bin", b"ZSRMAT_V")


def same_ranking(a, b):
    """Same items, same score bits, same flags."""
    return (a.items.tolist() == b.items.tolist() and a.scores.tobytes() == b.scores.tobytes()
            and (a.k, a.short, a.score_mode) == (b.k, b.short, b.score_mode))


class TestPreparedBlock:
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_loaded_block_ranks_as_a_writable_copy(self, mode, rng, tmp_path, monkeypatch):
        n, m, d = 300, 40, 6
        rows = score_block_rows(n, monkeypatch, 16 * 150)
        V = rng.standard_normal((n, d)).astype(np.float32)
        V[5:12] = V[0]  # planted duplicates
        V[20:24] = 0.0  # planted zero rows
        W = rng.standard_normal((m, d)).astype(np.float32)
        frozen = loaded(tmp_path, V)
        assert not frozen.flags.writeable and np.array_equal(frozen, V)
        for _ in range(2):  # the second pass reads the prepared form built by the first
            for q in rng.standard_normal((20, d)):
                for k in (1, 10, n):
                    got = retrieve_topk(q, frozen, k, mode)
                    assert same_ranking(got, retrieve_topk(q, V.copy(), k, mode))
            queries = [rng.integers(0, m, size=int(rng.integers(1, 4))).tolist()
                       for _ in range(2 * rows + 5)]
            for got, want in zip(search(queries, W, frozen, 50, mode),
                                 search(queries, W, V.copy(), 50, mode)):
                assert same_ranking(got, want)
        assert (id(frozen), mode) in retrieval._PREPARED

    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_writable_block_edited_in_place_ranks_anew(self, mode, rng):
        V = rng.standard_normal((50, 4)).astype(np.float32)
        q = rng.standard_normal(4)
        before = retrieve_topk(q, V, 5, mode)
        V[before.items[0]] = -V[before.items[0]]  # the best item drops, in place
        V[7] = 0.0
        after = retrieve_topk(q, V, 5, mode)
        assert after.items.tolist() == sort_all_oracle(q, V, mode)[:5]
        assert before.items[0] not in after.items.tolist()
        assert not any(key[0] == id(V) for key in retrieval._PREPARED)

    @pytest.mark.parametrize("how", ["view", "owner"])
    def test_read_only_array_over_writable_memory_is_not_kept(self, how, rng):
        base = rng.standard_normal((50, 4)).astype(np.float32)
        V = base.view() if how == "view" else base
        V.flags.writeable = False  # read-only, yet its memory can still change
        q = rng.standard_normal(4)
        before = retrieve_topk(q, V, 5, "cosine")
        base.flags.writeable = True  # the owner may set it back
        base[before.items[0]] = 0.0
        V.flags.writeable = False
        after = retrieve_topk(q, V, 5, "cosine")
        assert after.items.tolist() == sort_all_oracle(q, base, "cosine")[:5]
        assert (id(V), "cosine") not in retrieval._PREPARED

    def test_entry_freed_with_the_loaded_state(self, tmp_path, rng):
        corpus = build_corpus({f"i{k}": [f"w{k % 3}"] for k in range(8)})
        save_model(init_model_state(TrainConfig(kind="zsl_te", d=4), corpus), tmp_path / "m",
                   corpus)
        state = load_model(tmp_path / "m")
        retrieve_topk(rng.standard_normal(4), state.V, 3, "cosine")
        search([[0], [1, 2]], state.W, state.V, 3, "dot")
        keys = [(id(state.V), "cosine"), (id(state.V), "dot")]
        assert all(key in retrieval._PREPARED for key in keys)
        del state
        assert not any(key in retrieval._PREPARED for key in keys)


class TestWorkingMemory:
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    def test_score_block_stays_within_the_budget(self, mode, rng):
        # 300 queries over 20,000 items: one block of 256 float64 score rows
        # would take 41 MB, the float32 block about CHUNK_FLOATS float64s.
        n, m, d, seeds = 20_000, 50, 8, 300
        V = rng.standard_normal((n, d)).astype(np.float32)
        W = rng.standard_normal((m, d)).astype(np.float32)
        queries = [rng.integers(0, m, size=int(rng.integers(1, 4))).tolist() for _ in range(seeds)]
        picked = np.sort(rng.choice(n, size=seeds, replace=False))
        neighbors = [rng.choice(n, size=int(rng.integers(1, 6)), replace=False).tolist()
                     if i in set(picked.tolist()) else [] for i in range(n)]
        nbrs = Rows.from_lists([sorted(row) for row in neighbors])
        graph = CorrelationGraph(nbrs, Rows(nbrs.indptr, np.ones_like(nbrs.values)), 5)
        state = ModelState("zsl_te", d, W, V, None, 0, score_mode=mode)
        # V is writable, so each call builds its prepared form: d x n float32,
        # n float64 norms and n live flags. Then a few budgets of scores, and
        # the queries, their candidates and results, a few hundred bytes each.
        bound = 8 * 4 * corpus_module.CHUNK_FLOATS + (4 * d + 9) * n + 1000 * seeds
        assert bound < 8 * 256 * n  # one float64 block of 256 score rows would break it
        assert peak_above_start(lambda: search(queries, W, V, 10, mode)) <= bound
        assert peak_above_start(lambda: reconstruction_recall(state, graph, mode)) <= bound
        # Every item is a candidate in a full ranking (k >= n: one item per group)
        # and where the error bound cannot hold (an inf entry): rows are rescored
        # in runs that fit the budget. A full ranking's results add an item and
        # a score per item.
        rows = budget_rows((n + 1) // 2)
        full = peak_above_start(lambda: search(queries[:rows], W, V, n, mode))
        assert full <= bound + 16 * n * rows
        V[0, 0] = np.inf
        assert peak_above_start(lambda: search(queries[:2 * rows], W, V, 10, mode)) <= bound


def interleave_oracle(primary, secondary, head_len):
    """Reference for ``ensemble_interleave`` in a second form: index
    counters, a turn flag and one scan per list and phase."""
    out_items, out_scores, seen = [], [], set()

    def emit(item, score):
        out_items.append(item)
        out_scores.append(score)
        seen.add(item)

    p_entries, s_entries = list(primary), list(secondary)
    pi = si = 0
    while pi < len(p_entries) and pi < head_len:
        item, score = p_entries[pi]
        pi += 1
        if item not in seen:
            emit(item, score)
    s_cap = head_len if head_len > 0 else None
    s_emitted = 0
    turn_secondary = True
    while pi < len(p_entries) or si < len(s_entries):
        if turn_secondary:
            if s_cap is not None and s_emitted >= s_cap:
                si = len(s_entries)
            while si < len(s_entries):
                item, score = s_entries[si]
                si += 1
                if item not in seen:
                    emit(item, score)
                    s_emitted += 1
                    break
        else:
            while pi < len(p_entries):
                item, score = p_entries[pi]
                pi += 1
                if item not in seen:
                    emit(item, score)
                    break
        turn_secondary = not turn_secondary
    return out_items, out_scores


class TestEnsembleInterleave:
    def test_matches_the_reference_oracle(self, rng):
        for case in range(12_000):
            universe = int(rng.integers(1, 16))
            # Every few cases a list repeats an item, which a RankedList does not.
            draw = (lambda n: rng.integers(0, universe, size=n)) if case % 5 == 0 else (
                lambda n: rng.permutation(universe)[:n])
            p, s = (ranked(items, rng.standard_normal(len(items))) for items in
                    (draw(int(rng.integers(0, universe + 1))) for _ in range(2)))
            head = int(rng.integers(0, universe + 2))
            out = ensemble_interleave(p, s, head)
            items, scores = interleave_oracle(p, s, head)
            assert out.items.tolist() == items
            assert out.scores.tobytes() == np.array(scores, dtype=np.float64).tobytes()
            assert (out.k, out.short, out.score_mode) == (len(items), False, p.score_mode)

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
