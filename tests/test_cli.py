"""End-to-end runs of the zsr command line through main()."""
import json

import numpy as np
import pytest

from zsretrieval import binio
from zsretrieval.cli import main
from zsretrieval.corpus import ADJ_MAGIC, WORDS_MAGIC

ITEMS = """\
{"id": "a", "words": ["red", "apple", "fruit"]}
{"id": "b", "words": ["green", "apple", "pie"]}
{"id": "c", "words": ["red", "fire", "truck"]}
{"id": "d", "words": ["fast", "fire", "engine"]}
"""

SEQUENCES = """\
u1\ta,b,a,b
u2\tc,d,c,d
u3\ta,b
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "items.jsonl").write_text(ITEMS)
    (tmp_path / "sequences.tsv").write_text(SEQUENCES)
    return tmp_path


def ingest(ws):
    rc = main(["ingest", "--items", str(ws / "items.jsonl"),
               "--sequences", str(ws / "sequences.tsv"),
               "--out", str(ws / "corpus")])
    assert rc == 0
    return ws / "corpus"


def train(ws, corpus, name="model", extra=()):
    rc = main(["train", "--corpus", str(corpus), "--out", str(ws / name),
               "--model", "zsl_te", "--dim", "4", "--sweeps", "4",
               "--seed", "1", *extra])
    assert rc == 0
    return ws / name


class TestIngest:
    def test_writes_corpus_and_manifest(self, workspace, capsys):
        out = ingest(workspace)
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert set(manifest["inputs"]) == {"items", "sequences"}
        for rec in manifest["inputs"].values():
            assert len(rec["sha256"]) == 64
        assert "4 items" in capsys.readouterr().out

    def test_missing_items_file_is_data_error(self, workspace, capsys):
        rc = main(["ingest", "--items", str(workspace / "nope.jsonl"),
                   "--out", str(workspace / "corpus")])
        assert rc == 2

    def test_malformed_jsonl_is_data_error(self, workspace, capsys):
        (workspace / "bad.jsonl").write_text("{not json\n")
        rc = main(["ingest", "--items", str(workspace / "bad.jsonl"),
                   "--out", str(workspace / "corpus")])
        assert rc == 2


class TestTrain:
    def test_writes_model_trace_manifest(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        assert (model / "manifest.json").exists()
        trace = (model / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "sweep,loss_total,loss_task1,loss_task2,loss_reg,seconds"
        assert len(trace) == 6  # header + initial + 4 sweeps
        manifest = json.loads((model / "manifest.json").read_text())
        assert manifest["config"]["model"] == "zsl_te"
        assert manifest["config"]["sweeps"] == 4

    def test_config_file_overridden_by_flag(self, workspace):
        corpus = ingest(workspace)
        cfgfile = workspace / "train.json"
        cfgfile.write_text(json.dumps({"sweeps": 9, "dim": 2}))
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(workspace / "m"), "--model", "stl",
                   "--config", str(cfgfile), "--sweeps", "3"])
        assert rc == 0
        manifest = json.loads((workspace / "m" / "manifest.json").read_text())
        assert manifest["config"]["sweeps"] == 3  # flag wins
        assert manifest["config"]["dim"] == 2    # config beats default

    def test_unknown_config_key_is_usage_error(self, workspace):
        corpus = ingest(workspace)
        cfgfile = workspace / "bad.json"
        cfgfile.write_text(json.dumps({"swoops": 9}))
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(workspace / "m"), "--config", str(cfgfile)])
        assert rc == 1

    def test_smc_requires_pairs(self, workspace):
        corpus = ingest(workspace)
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(workspace / "m"), "--model", "smc"])
        assert rc == 1

    def test_smc_trains_from_pairs(self, workspace):
        corpus = ingest(workspace)
        (workspace / "pairs.tsv").write_text("apple\ta\nfire\tc\n")
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(workspace / "smc"), "--model", "smc",
                   "--pairs", str(workspace / "pairs.tsv"),
                   "--dim", "4", "--steps", "50", "--negatives", "2",
                   "--learning-rate", "0.1"])
        assert rc == 0
        assert (workspace / "smc" / "manifest.json").exists()


class TestRetrieve:
    def test_results_format(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "queries.txt").write_text("apple\nzzz unknown\n")
        rc = main(["retrieve", "--model", str(model), "--corpus", str(corpus),
                   "--queries", str(workspace / "queries.txt"),
                   "--out", str(workspace / "ret"), "--k", "2"])
        assert rc == 0
        lines = (workspace / "ret" / "results.tsv").read_text().splitlines()
        assert lines[0] == "# query 0\tapple"
        rank, item, score = lines[1].split("\t")
        assert rank == "1" and item in {"a", "b", "c", "d"}
        float(score)
        assert any(line.startswith("# skipped:") for line in lines)
        assert "1 skipped" in capsys.readouterr().out

    def test_default_k_is_100(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "q.txt").write_text("apple\n")
        rc = main(["retrieve", "--model", str(model), "--corpus", str(corpus),
                   "--queries", str(workspace / "q.txt"),
                   "--out", str(workspace / "ret")])
        assert rc == 0
        manifest = json.loads((workspace / "ret" / "manifest.json").read_text())
        assert manifest["config"]["k"] == 100

    def test_missing_model_dir_is_data_error(self, workspace):
        corpus = ingest(workspace)
        (workspace / "q.txt").write_text("apple\n")
        rc = main(["retrieve", "--model", str(workspace / "absent"),
                   "--corpus", str(corpus),
                   "--queries", str(workspace / "q.txt"),
                   "--out", str(workspace / "ret")])
        assert rc == 2


class TestEval:
    def test_reconstruction_report(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        rc = main(["eval", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(workspace / "ev")])
        assert rc == 0
        report = json.loads((workspace / "ev" / "report.json").read_text())
        assert report["metric"] == "reconstruction"
        assert 0.0 <= report["mean_recall"] <= 1.0
        csv_lines = (workspace / "ev" / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "metric,split,value"

    def test_pooled_requires_labeled(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        rc = main(["eval", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(workspace / "ev"), "--metric", "pooled"])
        assert rc == 1

    def test_pooled_and_recall_reports(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "labeled.jsonl").write_text(
            '{"query": ["apple"], "relevant": ["a", "b"]}\n'
            '{"query": ["fire"], "relevant": ["c", "d"], "set": "hard"}\n')
        rc = main(["eval", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(workspace / "ev1"), "--metric", "pooled",
                   "--labeled", str(workspace / "labeled.jsonl")])
        assert rc == 0
        report = json.loads((workspace / "ev1" / "report.json").read_text())
        assert set(report["sets"]) == {"default", "hard"}
        (workspace / "pairs.tsv").write_text("apple\ta\nfire\tc\n")
        rc = main(["eval", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(workspace / "ev2"), "--metric", "recall",
                   "--pairs", str(workspace / "pairs.tsv"), "--k", "2"])
        assert rc == 0
        report = json.loads((workspace / "ev2" / "report.json").read_text())
        assert report["k"] == 2 and report["scored"] == 2

    def test_unknown_item_in_pairs_is_data_error(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "pairs.tsv").write_text("apple\tmissing\n")
        rc = main(["eval", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(workspace / "ev"), "--metric", "recall",
                   "--pairs", str(workspace / "pairs.tsv")])
        assert rc == 2


class TestEnsembleEval:
    def test_report_and_head_default(self, workspace):
        corpus = ingest(workspace)
        zsl = train(workspace, corpus, "zsl")
        (workspace / "pairs.tsv").write_text("apple\ta\nfire\tc\n")
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(workspace / "smc"), "--model", "smc",
                   "--pairs", str(workspace / "pairs.tsv"),
                   "--dim", "4", "--steps", "20", "--negatives", "2"])
        assert rc == 0
        rc = main(["ensemble-eval", "--primary", str(workspace / "smc"),
                   "--secondary", str(zsl), "--corpus", str(corpus),
                   "--pairs", str(workspace / "pairs.tsv"),
                   "--out", str(workspace / "ens"), "--k", "4"])
        assert rc == 0
        report = json.loads((workspace / "ens" / "report.json").read_text())
        assert report["head_len"] == 2  # defaults to k // 2
        assert set(report["recall"]) == {"primary", "secondary", "ensemble"}


class TestRefresh:
    def test_extends_model_onto_grown_corpus(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "items2.jsonl").write_text(
            ITEMS + '{"id": "e", "words": ["blue", "water", "bottle"]}\n')
        (workspace / "seq2.tsv").write_text(SEQUENCES + "u4\te,a,e\n")
        rc = main(["ingest", "--items", str(workspace / "items2.jsonl"),
                   "--sequences", str(workspace / "seq2.tsv"),
                   "--out", str(workspace / "corpus2")])
        assert rc == 0
        rc = main(["refresh", "--model", str(model),
                   "--old-corpus", str(corpus),
                   "--new-corpus", str(workspace / "corpus2"),
                   "--out", str(workspace / "model2")])
        assert rc == 0
        assert "n=5" in capsys.readouterr().out
        trace = (workspace / "model2" / "loss_trace.csv").read_text().splitlines()
        assert len(trace) == 4  # header + initial + 2 default sweeps
        for row in trace[1:]:
            _, _, task1, task2, reg, _ = row.split(",")
            assert task1 and task2 and reg  # loss components filled in


class TestLossAudit:
    def test_prints_agreement_line(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        rc = main(["loss-audit", "--model", str(model), "--corpus", str(corpus)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bruteforce=" in out and "efficient=" in out and "rel_diff=" in out


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        assert main(["ingest", "--items", "x", "--out", "y", "--bogus"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def _rewrite(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def _drop_max_neighbors(corpus):
    meta = json.loads((corpus / "corpus_meta.json").read_text())
    del meta["max_neighbors"]
    (corpus / "corpus_meta.json").write_text(json.dumps(meta))


# Each case damages one input; the command must exit 2 with one line.
MALFORMED = {
    "graph-count-not-an-integer": (
        lambda ws, c: (ws / "graph.tsv").write_text("a\tb\tthree\n"), "ingest-graph"),
    "item-id-with-a-tab": (
        lambda ws, c: _rewrite(ws / "items.jsonl", "\n", '\n{"id": "e\\tx", "words": []}\n'),
        "ingest"),
    "word-with-a-line-break": (
        lambda ws, c: _rewrite(ws / "items.jsonl", '"red"', '"r\\ned"'), "ingest"),
    "vocab-line-without-index": (
        lambda ws, c: _rewrite(c / "vocab.tsv", "\t0\n", "\n"), "train"),
    "items-line-with-a-stray-field": (
        lambda ws, c: _rewrite(c / "items.tsv", "\t0\n", "\t0\tx\n"), "train"),
    "items-index-not-an-integer": (
        lambda ws, c: _rewrite(c / "items.tsv", "\t0\n", "\tzero\n"), "train"),
    "corpus-meta-without-max-neighbors": (
        lambda ws, c: _drop_max_neighbors(c), "train"),
    "word-offsets-fall": (
        lambda ws, c: binio.write_int_lists(c / "words.bin", WORDS_MAGIC,
                                            np.array([0, 3, 2, 4, 4]), np.zeros(4)), "train"),
    "word-offsets-start-above-0": (
        lambda ws, c: binio.write_int_lists(c / "words.bin", WORDS_MAGIC,
                                            np.array([1, 1, 1, 1, 1]), np.zeros(1)), "train"),
    "word-index-outside-the-vocabulary": (
        lambda ws, c: binio.write_int_lists(c / "words.bin", WORDS_MAGIC,
                                            np.array([0, 1, 1, 1, 1]), np.array([999])),
        "train"),
    "neighbor-index-outside-the-items": (
        lambda ws, c: binio.write_int_lists(c / "adjacency.bin", ADJ_MAGIC,
                                            np.array([0, 1, 1, 1, 1]), np.array([4]),
                                            np.array([1])), "train"),
    "adjacency-with-fewer-rows-than-items": (
        lambda ws, c: binio.write_int_lists(c / "adjacency.bin", ADJ_MAGIC,
                                            np.array([0, 0]), np.zeros(0), np.zeros(0)),
        "train"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_line(workspace, capsys, case):
    damage, command = MALFORMED[case]
    corpus = ingest(workspace)
    capsys.readouterr()
    damage(workspace, corpus)
    if command == "train":
        argv = ["train", "--corpus", str(corpus), "--out", str(workspace / "m"),
                "--model", "zsl_te", "--dim", "2", "--sweeps", "1"]
    else:
        argv = ["ingest", "--items", str(workspace / "items.jsonl"),
                "--out", str(workspace / "c2")]
        if command == "ingest-graph":
            argv += ["--graph", str(workspace / "graph.tsv")]
        else:
            argv += ["--sequences", str(workspace / "sequences.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
