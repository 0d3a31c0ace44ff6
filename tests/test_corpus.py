"""Corpus construction: graph counting, thresholds, weights, persistence."""
import json
from collections import Counter

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
        g = build_correlation_graph(Rows.from_lists([[0, 1, 2]]), 3, 250)
        assert g.neighbors[0].tolist() == [1]
        assert g.neighbors[1].tolist() == [2]
        assert g.neighbors[2].tolist() == []

    def test_count_ranking_with_cap(self):
        # [A,B],[A,B],[A,C] cap 1 -> Ne(A)={B} (count 2 beats count 1)
        g = build_correlation_graph(Rows.from_lists([[0, 1], [0, 1], [0, 2]]), 3, 1)
        assert g.neighbors[0].tolist() == [1]
        assert g.counts[0].tolist() == [2]

    def test_count_tie_broken_by_ascending_index(self):
        g = build_correlation_graph(Rows.from_lists([[0, 2], [0, 1]]), 3, 1)
        assert g.neighbors[0].tolist() == [1]

    def test_self_transition_skipped(self):
        g = build_correlation_graph(Rows.from_lists([[0, 0, 1]]), 2, 250)
        assert g.neighbors[0].tolist() == [1]

    def test_symmetrize_flag(self):
        g = build_correlation_graph(Rows.from_lists([[0, 1]]), 2, 250, symmetrize=True)
        assert g.neighbors[0].tolist() == [1]
        assert g.neighbors[1].tolist() == [0]

    def test_window_extension(self):
        g = build_correlation_graph(Rows.from_lists([[0, 1, 2]]), 3, 250, window=2)
        assert g.neighbors[0].tolist() == [1, 2]

    def test_empty_sequences_empty_graph(self):
        g = build_correlation_graph(Rows.from_lists([]), 3, 250)
        assert g.nnz == 0

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            build_correlation_graph(Rows.from_lists([]), 3, 0)

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("window", [1, 2])
    def test_rows_never_exceed_cap_and_keep_max_counts(self, rng, window, symmetrize):
        sequences = [rng.integers(0, 12, size=20).tolist() for _ in range(30)]
        cap = 3
        g = build_correlation_graph(Rows.from_lists(sequences), 12, cap, window, symmetrize)
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
        g = build_correlation_graph(Rows.from_lists([[0, 1, 2], [0, 2]]), 3, 250)
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
        g = build_correlation_graph(Rows.from_lists([[0, 1], [1, 2], [2, 0]]), 3, 250)
        w = compute_training_weights(g)
        assert np.allclose(w.row, 1.0)

    def test_empty_row_gets_max_raw_weight(self):
        # rows: nnz [1,1,0]; raw [1,1,1] after the empty-row rule -> all 1.0
        g = build_correlation_graph(Rows.from_lists([[0, 1], [1, 0]]), 3, 250)
        w = compute_training_weights(g)
        assert np.allclose(w.row, 1.0)

    def test_zero_edge_graph_all_ones(self):
        g = build_correlation_graph(Rows.from_lists([]), 4, 250)
        w = compute_training_weights(g)
        assert np.allclose(w.row, 1.0) and np.allclose(w.col, 1.0)


class TestIngestion:
    def test_jsonl_and_sequences_roundtrip(self, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text('{"id": "a", "words": ["x", "y"]}\n'
                         '{"id": "b", "words": ["y"]}\n')
        seqs = tmp_path / "seq.tsv"
        seqs.write_text("u1\ta,b\nu2\ta,b\n")
        item_text = read_items_jsonl(items)
        sequences = read_sequences_tsv(seqs, {"a": 0, "b": 1})
        assert sequences.indptr.tolist() == [0, 2, 4]
        assert sequences.values.tolist() == [0, 1, 0, 1]
        corpus = ingest_corpus(item_text, sequences)
        assert corpus.n == 2
        assert corpus.graph.neighbors[corpus.item_index["a"]].tolist() == [
            corpus.item_index["b"]]

    def test_reader_keeps_empty_rows_and_skips_blank_lines(self, tmp_path):
        p = tmp_path / "seq.tsv"
        p.write_text("u1\ta,,b\n\nu2\t\nu3\tb\n")
        rows = read_sequences_tsv(p, {"a": 0, "b": 1})
        assert [r.tolist() for r in rows] == [[0, 1], [], [1]]

    def test_unknown_item_in_sequences_names_file_and_line(self, tmp_path):
        p = tmp_path / "seq.tsv"
        p.write_text("u1\ta,b\n\n\nu2\ta,zzz\n")
        with pytest.raises(IngestError) as info:
            read_sequences_tsv(p, {"a": 0, "b": 1})
        assert str(info.value) == f"{p}:4: unknown item id 'zzz'"

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_item_index_out_of_range_is_refused(self, bad):
        with pytest.raises(IngestError, match="item index out of range"):
            ingest_corpus({"a": ["x"], "b": ["y"]}, Rows.from_lists([[0, bad]]))
        with pytest.raises(IngestError, match="item index out of range"):
            build_correlation_graph(Rows.from_lists([[0, bad]]), 2, 250)

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
        corpus = ingest_corpus({"a": ["x"], "b": ["y"]}, Rows.from_lists([[0, 1], [0]]),
                               min_item_count=2)
        assert corpus.item_ids == ["a"]

    def test_dropped_item_joins_its_neighbors(self):
        # a,x,b / a,b / a,b with x consumed once: x is dropped, and the a,b
        # on either side of it count as one more a->b transition.
        corpus = ingest_corpus({"a": ["p"], "x": ["q"], "b": ["r"]},
                               Rows.from_lists([[0, 1, 2], [0, 2], [0, 2]]), min_item_count=2)
        assert corpus.item_ids == ["a", "b"]
        assert corpus.graph.neighbors[0].tolist() == [1]
        assert corpus.graph.counts[0].tolist() == [3]

    def test_words_to_indices_drops_oov(self):
        corpus = build_corpus({"a": ["x", "y"]})
        idx = words_to_indices(corpus, ["x", "zzz", "y"])
        # x, y survive; bigrams x_zzz/zzz_y are OOV; x_y never co-occurred
        assert [corpus.vocab[k] for k in idx] == ["x", "y"]


def reference_ingest(item_text, sequences, min_item_count, min_word_count, max_neighbors,
                     window, symmetrize):
    """The dict-and-list ingest the array path replaced, kept as its
    reference: ``sequences`` are (user, [item id]) pairs, counted one
    transition at a time."""
    consumption = Counter(item_id for _, seq in sequences for item_id in seq)
    corpus = build_corpus(item_text, min_item_count, min_word_count, consumption)
    index = corpus.item_index
    mapped = [[index[i] for i in seq if i in index] for _, seq in sequences]
    raw = Counter()
    for seq in mapped:
        for w in range(1, window + 1):
            for q, p in zip(seq, seq[w:]):
                if q != p:
                    raw[q, p] += 1
                    if symmetrize:
                        raw[p, q] += 1
    rows = [[] for _ in range(corpus.n)]
    for (q, p), c in raw.items():
        rows[q].append((p, c))
    rows = [sorted(sorted(row, key=lambda e: (-e[1], e[0]))[:max_neighbors]) for row in rows]
    neighbors = Rows.from_lists([[p for p, _ in row] for row in rows])
    counts = Rows(neighbors.indptr, np.array([c for row in rows for _, c in row], dtype=np.int64))
    corpus.graph = CorrelationGraph(neighbors, counts, max_neighbors)
    return corpus


CORPUS_FILES = ("vocab.tsv", "items.tsv", "words.bin", "adjacency.bin", "corpus_meta.json")


class TestArrayIngestMatchesReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_arrays_and_bytes(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 15))
        item_text = {f"i{k}": [f"w{w}" for w in rng.integers(6, size=int(rng.integers(0, 5)))]
                     for k in range(n)}
        ids = list(item_text)
        lines = []
        for u in range(int(rng.integers(0, 12))):
            # empty, one-item and longer sequences over a few items, so ids repeat
            length = int(rng.choice([0, 1, int(rng.integers(2, 12))]))
            seq = rng.integers(int(rng.integers(1, n + 1)), size=length)
            lines.append(f"u{u}\t{','.join(ids[i] for i in seq)}\n")
            if rng.random() < 0.2:
                lines.append("\n")
        path = tmp_path / "sequences.tsv"
        path.write_text("".join(lines))
        text_rows = [line.rstrip("\n").split("\t") for line in lines if line != "\n"]
        reference_seqs = [(user, [s for s in seq.split(",") if s]) for user, seq in text_rows]
        args = (int(rng.integers(0, 4)), int(rng.integers(0, 3)),
                int(rng.choice([1, 2, 3, 250])), int(rng.integers(1, 4)), bool(rng.random() < 0.5))

        got = ingest_corpus(item_text, read_sequences_tsv(path, {t: i for i, t in enumerate(ids)}),
                            *args)
        want = reference_ingest(item_text, reference_seqs, *args)
        assert (got.item_ids, got.vocab, got.stats) == (want.item_ids, want.vocab, want.stats)
        for a, b in ((got.word_lists, want.word_lists), (got.graph.neighbors, want.graph.neighbors),
                     (got.graph.counts, want.graph.counts)):
            assert a.indptr.tolist() == b.indptr.tolist()
            assert a.values.tolist() == b.values.tolist()
        save_corpus(got, tmp_path / "got")
        save_corpus(want, tmp_path / "want")
        for name in CORPUS_FILES:
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


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


# Whitespace other than tab and line breaks, and combining marks of several blocks.
ODD_SPACES = " \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
COMBINING = "\u0301\u0308\u0345\u20d7\ufe20\U0001d165\U000e0100"


def random_token(rng, max_len=6):
    """A token of code points drawn from all 17 planes (no surrogates, tab or
    line breaks), odd whitespace and combining marks."""
    chars = []
    while len(chars) < int(rng.integers(0, max_len + 1)) or not chars:
        pick = int(rng.integers(3))
        if pick == 0:
            cp = int(rng.integers(17)) * 0x10000 + int(rng.integers(0x10000))
            if 0xD800 <= cp < 0xE000 or chr(cp) in "\t\n\r":
                continue
            chars.append(chr(cp))
        else:
            pool = ODD_SPACES if pick == 1 else COMBINING
            chars.append(pool[int(rng.integers(len(pool)))])
    return "".join(chars)


class TestUnicodeRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_ingest_save_load_reproduces_the_corpus(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        items = {}
        while len(items) < 25:  # "," separates the ids of a sequence
            items[random_token(rng).replace(",", ".")] = [
                random_token(rng) for _ in range(int(rng.integers(0, 5)))]
        ids = list(items)
        sequences = [(random_token(rng), [ids[i] for i in rng.integers(len(ids), size=8)])
                     for _ in range(12)]
        ascii_only = bool(seed % 2)  # \u escapes, or the characters themselves
        (tmp_path / "items.jsonl").write_text("".join(
            json.dumps({"id": k, "words": v}, ensure_ascii=ascii_only) + "\n"
            for k, v in items.items()), encoding="utf-8")
        (tmp_path / "sequences.tsv").write_text("".join(
            f"{user}\t{','.join(seq)}\n" for user, seq in sequences), encoding="utf-8")

        assert read_items_jsonl(tmp_path / "items.jsonl") == items
        index = {item_id: i for i, item_id in enumerate(ids)}
        rows = read_sequences_tsv(tmp_path / "sequences.tsv", index)
        assert [r.tolist() for r in rows] == [[index[i] for i in seq] for _, seq in sequences]
        corpus = ingest_corpus(items, rows, max_neighbors=3, window=2)
        save_corpus(corpus, tmp_path / "corpus")
        back = load_corpus(tmp_path / "corpus")
        assert back.item_ids == ids
        assert back.vocab == corpus.vocab
        for item_id, row in zip(ids, back.word_lists):
            assert [back.vocab[k] for k in row] == tokens_with_bigrams(items[item_id])
        for got, want in ((back.word_lists, corpus.word_lists),
                          (back.graph.neighbors, corpus.graph.neighbors),
                          (back.graph.counts, corpus.graph.counts)):
            assert got.indptr.tolist() == want.indptr.tolist()
            assert got.values.tolist() == want.values.tolist()
        assert corpus.graph.nnz > 0
        assert back.graph.max_neighbors == 3
