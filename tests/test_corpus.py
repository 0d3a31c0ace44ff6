"""Corpus construction: graph counting, thresholds, weights, persistence."""
import numpy as np
import pytest

from zsretrieval.corpus import (
    Corpus,
    CorrelationGraph,
    Rows,
    build_correlation_graph,
    build_corpus,
    compute_training_weights,
    empty_graph,
    ingest_corpus,
    load_corpus,
    read_graph_tsv,
    read_items_jsonl,
    read_sequences_tsv,
    save_corpus,
    tokens_with_bigrams,
    words_to_indices,
)
from zsretrieval.errors import ConfigError, IngestError


class TestCorrelationGraph:
    def test_single_sequence_adjacency(self):
        # [A,B,C] -> Ne(A)={B}, Ne(B)={C}, Ne(C)={}
        g = build_correlation_graph([[0, 1, 2]], 3, 250)
        assert g.neighbors[0].tolist() == [1]
        assert g.neighbors[1].tolist() == [2]
        assert g.neighbors[2].tolist() == []

    def test_count_ranking_with_cap(self):
        # [A,B],[A,B],[A,C] cap 1 -> Ne(A)={B} (count 2 beats count 1)
        g = build_correlation_graph([[0, 1], [0, 1], [0, 2]], 3, 1)
        assert g.neighbors[0].tolist() == [1]
        assert g.counts[0].tolist() == [2]

    def test_count_tie_broken_by_ascending_index(self):
        g = build_correlation_graph([[0, 2], [0, 1]], 3, 1)
        assert g.neighbors[0].tolist() == [1]

    def test_self_transition_skipped(self):
        g = build_correlation_graph([[0, 0, 1]], 2, 250)
        assert g.neighbors[0].tolist() == [1]

    def test_symmetrize_flag(self):
        g = build_correlation_graph([[0, 1]], 2, 250, symmetrize=True)
        assert g.neighbors[0].tolist() == [1]
        assert g.neighbors[1].tolist() == [0]

    def test_window_extension(self):
        g = build_correlation_graph([[0, 1, 2]], 3, 250, window=2)
        assert g.neighbors[0].tolist() == [1, 2]

    def test_empty_sequences_empty_graph(self):
        g = build_correlation_graph([], 3, 250)
        assert g.nnz == 0

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            build_correlation_graph([], 3, 0)

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("window", [1, 2])
    def test_rows_never_exceed_cap_and_keep_max_counts(self, rng, window, symmetrize):
        sequences = [rng.integers(0, 12, size=20).tolist() for _ in range(30)]
        cap = 3
        g = build_correlation_graph(sequences, 12, cap, window, symmetrize)
        raw = {}
        for seq in sequences:
            for w in range(1, window + 1):
                for q, p in zip(seq, seq[w:]):
                    if q != p:
                        raw[(q, p)] = raw.get((q, p), 0) + 1
                        if symmetrize:
                            raw[(p, q)] = raw.get((p, q), 0) + 1
        for i in range(12):
            row = sorted(((p, c) for (q, p), c in raw.items() if q == i),
                         key=lambda e: (-e[1], e[0]))[:cap]
            assert len(g.neighbors[i]) <= cap
            assert sorted(j for j, _ in row) == g.neighbors[i].tolist()
            assert g.counts[i].tolist() == [raw[(i, int(j))] for j in g.neighbors[i]]

    def test_in_edges_is_transpose(self):
        g = build_correlation_graph([[0, 1, 2], [0, 2]], 3, 250)
        ins, order = g.neighbors.transpose(g.n)
        for i, row in enumerate(g.neighbors):
            for j in row:
                assert i in ins[int(j)].tolist()
        assert [r.tolist() for r in ins] == [[], [0], [0, 1]]
        assert g.neighbors.values[order].tolist() == ins.row_ids().tolist()


class TestBuildCorpus:
    def test_bigram_vocabulary(self):
        c = build_corpus({"x": ["fun", "prank"]})
        assert set(c.vocab) == {"fun", "prank", "fun_prank"}

    def test_min_word_count_drops_rare_words(self):
        c = build_corpus({"x": ["fun"], "y": ["fun", "rare"]}, min_word_count=2)
        assert "fun" in c.vocab_index
        assert "rare" not in c.vocab_index
        assert "fun_rare" not in c.vocab_index

    def test_duplicates_and_order_preserved(self):
        c = build_corpus({"x": ["a", "a", "b"]})
        words = [c.vocab[k] for k in c.word_lists[0]]
        assert words == ["a", "a", "b", "a_a", "a_b"]

    def test_empty_text_flagged_not_dropped(self):
        c = build_corpus({"x": [], "y": ["fun"]})
        assert c.n == 2
        assert c.stats["items_with_empty_text"] == 1

    def test_tokens_with_bigrams_order(self):
        assert tokens_with_bigrams(["a", "b", "c"]) == ["a", "b", "c", "a_b", "b_c"]


class TestTrainingWeights:
    def test_hand_example(self):
        # row nnz pattern [1,4,4]: raw [1,.5,.5], mean 2/3 -> [1.5,.75,.75]
        rows = [[1], [0, 2, 3, 4], [0, 3, 4, 5],
                [2], [0, 1, 2, 5], [0, 1, 3, 4]]
        g = CorrelationGraph(Rows.from_lists(rows),
                             Rows.from_lists([[1] * len(r) for r in rows]), 250)
        w = compute_training_weights(g)
        assert w.row.tolist() == pytest.approx([1.5, 0.75, 0.75, 1.5, 0.75, 0.75],
                                               abs=1e-12)

    def test_mean_is_exactly_one(self, rng):
        from tests.conftest import make_random_corpus
        for _ in range(10):
            c = make_random_corpus(rng, int(rng.integers(2, 20)), 4)
            w = compute_training_weights(c.graph)
            assert abs(w.row.mean() - 1.0) < 1e-12
            assert abs(w.col.mean() - 1.0) < 1e-12

    def test_equal_nnz_gives_unit_weights(self):
        g = build_correlation_graph([[0, 1], [1, 2], [2, 0]], 3, 250)
        w = compute_training_weights(g)
        assert np.allclose(w.row, 1.0)

    def test_empty_row_gets_max_raw_weight(self):
        # rows: nnz [1,1,0]; raw [1,1,1] after the empty-row rule -> all 1.0
        g = build_correlation_graph([[0, 1], [1, 0]], 3, 250)
        w = compute_training_weights(g)
        assert np.allclose(w.row, 1.0)

    def test_empty_weight_one_flag(self):
        # row nnz [4,0,0,0,0]: default fills empties with the max raw (0.5),
        # so all rows rescale to 1.0; the flag fills with raw 1.0 instead.
        g4 = build_correlation_graph([[0, 1], [0, 2], [0, 3], [0, 4]], 5, 250)
        default = compute_training_weights(g4)
        flagged = compute_training_weights(g4, empty_weight_one=True)
        assert np.allclose(default.row, 1.0)
        assert flagged.row[1] / flagged.row[0] == pytest.approx(2.0)
        assert abs(flagged.row.mean() - 1.0) < 1e-12

    def test_zero_edge_graph_all_ones(self):
        g = build_correlation_graph([], 4, 250)
        w = compute_training_weights(g)
        assert np.allclose(w.row, 1.0) and np.allclose(w.col, 1.0)


class TestIngestion:
    def test_jsonl_and_sequences_roundtrip(self, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text('{"id": "a", "words": ["x", "y"]}\n'
                         '{"id": "b", "words": ["y"]}\n')
        seqs = tmp_path / "seq.tsv"
        seqs.write_text("u1\ta,b\nu2\ta,b\n")
        corpus = ingest_corpus(read_items_jsonl(items), read_sequences_tsv(seqs))
        assert corpus.n == 2
        assert corpus.graph.neighbors[corpus.item_index["a"]].tolist() == [
            corpus.item_index["b"]]

    def test_unknown_item_in_sequences(self, tmp_path):
        with pytest.raises(IngestError, match="unknown item id"):
            ingest_corpus({"a": ["x"]}, [("u1", ["a", "zzz"])])

    def test_malformed_jsonl_names_line(self, tmp_path):
        p = tmp_path / "items.jsonl"
        p.write_text('{"id": "a", "words": ["x"]}\nnot json\n')
        with pytest.raises(IngestError, match=":2"):
            read_items_jsonl(p)

    def test_graph_tsv_direct_ingest(self, tmp_path):
        corpus = build_corpus({"a": ["x"], "b": ["y"]})
        p = tmp_path / "graph.tsv"
        p.write_text("a\tb\t3\n")
        g = read_graph_tsv(p, corpus)
        assert g.neighbors[corpus.item_index["a"]].tolist() == [corpus.item_index["b"]]
        assert g.counts[corpus.item_index["a"]].tolist() == [3]

    def test_graph_tsv_unknown_id(self, tmp_path):
        corpus = build_corpus({"a": ["x"]})
        p = tmp_path / "graph.tsv"
        p.write_text("a\tnope\t1\n")
        with pytest.raises(IngestError, match="unknown item id"):
            read_graph_tsv(p, corpus)

    def test_min_item_count_uses_consumption(self):
        corpus = ingest_corpus({"a": ["x"], "b": ["y"]},
                               [("u", ["a", "b"]), ("u", ["a"])],
                               min_item_count=2)
        assert corpus.item_ids == ["a"]

    def test_words_to_indices_drops_oov(self):
        corpus = build_corpus({"a": ["x", "y"]})
        idx = words_to_indices(corpus, ["x", "zzz", "y"])
        # x, y survive; bigrams x_zzz/zzz_y are OOV; x_y never co-occurred
        assert [corpus.vocab[k] for k in idx] == ["x", "y"]


class TestCorpusPersistence:
    def test_save_load_roundtrip(self, tmp_path, rng):
        from tests.conftest import make_random_corpus
        edgeless = Corpus(["a", "b", "c"], ["x"], Rows.from_lists([[], [0, 0], []]),
                          empty_graph(3, 7), {})
        for k, corpus in enumerate([make_random_corpus(rng, 9, 7), edgeless]):
            save_corpus(corpus, tmp_path / f"c{k}")
            back = load_corpus(tmp_path / f"c{k}")
            assert back.item_ids == corpus.item_ids
            assert back.vocab == corpus.vocab
            assert len(back.word_lists) == len(back.graph.neighbors) == corpus.n
            for a, b in zip(back.word_lists, corpus.word_lists):
                assert a.tolist() == b.tolist()
            for a, b in zip(back.graph.neighbors, corpus.graph.neighbors):
                assert a.tolist() == b.tolist()
            for a, b in zip(back.graph.counts, corpus.graph.counts):
                assert a.tolist() == b.tolist()
            assert back.graph.max_neighbors == corpus.graph.max_neighbors
