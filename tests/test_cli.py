"""End-to-end runs of the zsr command line through main()."""
import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zsretrieval
from zsretrieval import binio, evaluation
from zsretrieval.cli import build_parser, main
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
        assert manifest["threads"] == {"requested": None, "applied": False}
        assert "4 items" in capsys.readouterr().out
        rc = main(["ingest", "--items", str(workspace / "items.jsonl"),
                   "--out", str(workspace / "c1"), "--threads", "1"])
        assert rc == 0
        manifest = json.loads((workspace / "c1" / "manifest.json").read_text())
        # --threads acts through threadpoolctl, and only when it is installed.
        applied = importlib.util.find_spec("threadpoolctl") is not None
        assert manifest["threads"] == {"requested": 1, "applied": applied}

    def test_missing_items_file_is_data_error(self, workspace, capsys):
        rc = main(["ingest", "--items", str(workspace / "nope.jsonl"),
                   "--out", str(workspace / "corpus")])
        assert rc == 2

    def test_malformed_jsonl_is_data_error(self, workspace, capsys):
        (workspace / "bad.jsonl").write_text("{not json\n")
        rc = main(["ingest", "--items", str(workspace / "bad.jsonl"),
                   "--out", str(workspace / "corpus")])
        assert rc == 2

    # Options that could have no effect: --graph next to --sequences, a
    # non-default sequence option without --sequences, and a non-default
    # max_neighbors with no graph source, by flag or --config.
    @pytest.mark.parametrize("sequences, flags, config", [
        (True, ["--graph", "graph.tsv"], None),
        (False, ["--min-item-count", "2"], None),
        (False, ["--window", "2"], None),
        (False, ["--symmetrize"], None),
        (False, ["--graph", "graph.tsv", "--window", "3"], None),
        (False, [], {"min_item_count": 1}),
        (False, [], {"window": 2}),
        (False, [], {"symmetrize": True}),
        (False, ["--max-neighbors", "5"], None),
        (False, [], {"max_neighbors": 5}),
    ])
    def test_option_without_effect_is_config_error(self, workspace, capsys, monkeypatch,
                                                   sequences, flags, config):
        monkeypatch.chdir(workspace)
        Path("graph.tsv").write_text("a\tb\t1\n")
        argv = ["ingest", "--items", "items.jsonl", "--out", "corpus", *flags]
        if sequences:
            argv += ["--sequences", "sequences.tsv"]
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            argv += ["--config", "cfg.json"]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not Path("corpus").exists()

    def test_item_id_with_a_comma(self, workspace, capsys):
        _rewrite(workspace / "items.jsonl", "\n", '\n{"id": "e,f", "words": ["pie"]}\n')
        argv = ["ingest", "--items", str(workspace / "items.jsonl")]
        assert main([*argv, "--sequences", str(workspace / "sequences.tsv"),
                     "--out", str(workspace / "c1")]) == 2
        err = capsys.readouterr().err
        assert "'e,f'" in err and "separates ids in sequences.tsv" in err, err
        (workspace / "graph.tsv").write_text("e,f\ta\t2\n")
        assert main([*argv, "--graph", str(workspace / "graph.tsv"),
                     "--out", str(workspace / "c2")]) == 0

    def test_unknown_sequence_id_names_file_and_line(self, workspace, capsys):
        seqs = workspace / "sequences.tsv"
        seqs.write_text("u1\ta,b\n\n\nu2\ta,zzz\n")
        rc = main(["ingest", "--items", str(workspace / "items.jsonl"), "--sequences", str(seqs),
                   "--out", str(workspace / "corpus")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {seqs}:4: unknown item id 'zzz'"], err
        assert not (workspace / "corpus").exists()


class TestTrain:
    def test_writes_model_trace_manifest(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        assert (model / "manifest.json").exists()
        trace = (model / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == ("sweep,loss_total,loss_task1,loss_task2,loss_reg,seconds,"
                            "seconds_V,seconds_U,seconds_W,fallbacks_jitter,fallbacks_lstsq")
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

    def test_uncastable_config_value_is_config_error(self, workspace, capsys):
        corpus = ingest(workspace)
        (workspace / "train.json").write_text(json.dumps({"dim": "four"}))
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--out", str(workspace / "m"),
                   "--config", str(workspace / "train.json")])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            'config error: dim: expected int, got "four"']

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

    def test_streams_queries_in_blocks(self, workspace, capsys, monkeypatch):
        # More queries than a block, with unscorable lines and line breaks
        # other than "\n"; every query keeps its number and line text.
        import zsretrieval.cli as cli
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        lines = ["apple", "zzz", "", "red fire", "fire\x0ctruck", "pie"] * 3
        (workspace / "q.txt").write_text("\n".join(lines[:-1]) + "\r\n" + lines[-1])
        expected = (workspace / "q.txt").read_text().splitlines()
        capsys.readouterr()
        monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
        argv = ["retrieve", "--model", str(model), "--corpus", str(corpus),
                "--queries", str(workspace / "q.txt"), "--k", "2"]
        assert main(argv + ["--out", str(workspace / "small")]) == 0
        small = capsys.readouterr().out
        monkeypatch.setattr(cli, "BLOCK_ROWS", 1000)
        assert main(argv + ["--out", str(workspace / "one")]) == 0
        assert f"for {len(expected)} queries (6 skipped)" in small
        assert capsys.readouterr().out.split(" -> ")[0] == small.split(" -> ")[0]
        text = (workspace / "small" / "results.tsv").read_text()
        assert text == (workspace / "one" / "results.tsv").read_text()
        heads = [line for line in text.split("\n") if line.startswith("# query ")]
        assert heads == [f"# query {i}\t{raw}" for i, raw in enumerate(expected)]

    def test_empty_queries_file(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "q.txt").write_text("")
        assert main(["retrieve", "--model", str(model), "--corpus", str(corpus),
                     "--queries", str(workspace / "q.txt"), "--out", str(workspace / "r")]) == 0
        assert (workspace / "r" / "results.tsv").read_text() == "\n"
        assert "for 0 queries (0 skipped)" in capsys.readouterr().out

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

    def test_recall_by_length_buckets_by_query_words(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        # "red apple fruit" hits 3 words and 2 bigrams of the vocabulary.
        (workspace / "pairs.tsv").write_text("red apple fruit\ta\napple\tb\n")
        rc = main(["eval", "--model", str(model), "--corpus", str(corpus),
                   "--out", str(workspace / "ev"), "--metric", "recall",
                   "--pairs", str(workspace / "pairs.tsv"), "--k", "2", "--by-length"])
        assert rc == 0
        report = json.loads((workspace / "ev" / "report.json").read_text())
        assert set(report["by_length"]) == {"1", "3"}

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

    def test_searches_each_model_once(self, workspace, monkeypatch):
        corpus = ingest(workspace)
        zsl = train(workspace, corpus, "zsl")
        dot = train(workspace, corpus, "dot", extra=["--seed", "2"])
        _edit_model_meta(dot, "score_mode", "dot")
        (workspace / "pairs.tsv").write_text("apple\ta\nfire\tc\nred apple\tb\nzzz\td\n")
        calls = []
        search = evaluation.search
        monkeypatch.setattr(evaluation, "search",
                            lambda *a, **kw: calls.append(a) or search(*a, **kw))
        rc = main(["ensemble-eval", "--primary", str(dot), "--secondary", str(zsl),
                   "--corpus", str(corpus), "--pairs", str(workspace / "pairs.tsv"),
                   "--out", str(workspace / "ens"), "--k", "3"])
        assert rc == 0 and len(calls) == 2
        report = json.loads((workspace / "ens" / "report.json").read_text())
        for name, model in (("primary", dot), ("secondary", zsl)):
            assert main(["eval", "--model", str(model), "--corpus", str(corpus),
                         "--out", str(workspace / name), "--metric", "recall",
                         "--pairs", str(workspace / "pairs.tsv"), "--k", "3"]) == 0
            alone = json.loads((workspace / name / "report.json").read_text())
            assert (report["recall"][name], report["skipped"][name]) == (
                alone["mean_recall"], alone["skipped"])


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
            _, _, task1, task2, reg = row.split(",")[:5]
            assert task1 and task2 and reg  # loss components filled in

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_sub_seed_is_config_error(self, workspace, capsys, how):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        if how == "flag":
            extra = ["--sub-seed", "-1"]
        else:
            (workspace / "cfg.json").write_text(json.dumps({"sub_seed": -1}))
            extra = ["--config", str(workspace / "cfg.json")]
        capsys.readouterr()
        assert refresh(workspace, model, corpus, *extra) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: sub_seed must be >= 0"]
        assert not (workspace / "model2").exists()


def grow(ws):
    """A corpus with one more item, for refresh."""
    (ws / "items2.jsonl").write_text(ITEMS + '{"id": "e", "words": ["blue", "water", "bottle"]}\n')
    (ws / "seq2.tsv").write_text(SEQUENCES + "u4\te,a,e\n")
    assert main(["ingest", "--items", str(ws / "items2.jsonl"), "--sequences",
                 str(ws / "seq2.tsv"), "--out", str(ws / "corpus2")]) == 0
    return ws / "corpus2"


def refresh(ws, model, corpus, *extra):
    return main(["refresh", "--model", str(model), "--old-corpus", str(corpus),
                 "--new-corpus", str(grow(ws)), "--out", str(ws / "model2"), *extra])


class TestModelCarriesObjective:
    def test_train_stores_objective_in_meta(self, workspace):
        model = train(workspace, ingest(workspace), extra=["--omega0", "0.01"])
        meta = json.loads((model / "meta.json").read_text())
        assert meta["objective"] == {
            "omega0": 0.01, "lam": 4.0, "use_weights": True, "weight_negatives": True,
            "exclude_self_negative": False, "task1_encoded": False, "init_std": 0.1}

    def test_refresh_inherits_stored_objective(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus,
                      extra=["--omega0", "0.01", "--no-weights", "--lambda", "2"])
        capsys.readouterr()
        assert refresh(workspace, model, corpus) == 0
        assert capsys.readouterr().err == ""
        config = json.loads((workspace / "model2" / "manifest.json").read_text())["config"]
        assert (config["omega0"], config["use_weights"], config["lam"]) == (0.01, False, 2.0)
        assert config["sweeps"] == 2  # sweeps is not inherited
        meta = json.loads((workspace / "model2" / "meta.json").read_text())
        assert meta["objective"]["omega0"] == 0.01

    def test_explicit_flag_wins_with_one_notice(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus, extra=["--omega0", "0.01"])
        capsys.readouterr()
        assert refresh(workspace, model, corpus, "--omega0", "0.02", "--lambda", "4") == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "omega0=0.02" in err[0] and "lam" not in err[0]
        config = json.loads((workspace / "model2" / "manifest.json").read_text())["config"]
        assert config["omega0"] == 0.02

    def test_loss_audit_uses_stored_objective(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus, extra=["--omega0", "0.5", "--lambda", "0.25"])
        capsys.readouterr()
        assert main(["loss-audit", "--model", str(model), "--corpus", str(corpus)]) == 0
        audited = float(capsys.readouterr().out.split()[0].split("=")[1])
        final = float((model / "loss_trace.csv").read_text().splitlines()[-1].split(",")[1])
        assert audited == pytest.approx(final, rel=1e-9)

    @pytest.mark.parametrize("key, value, message", [
        ("lam", -1, "lambda must be finite and >= 0"),
        ("lam", float("nan"), "lambda must be finite and >= 0"),  # Python's json reads NaN
        ("lam", float("inf"), "lambda must be finite and >= 0"),
        ("init_std", -1.0, "init_std must be finite and >= 0"),
        ("init_std", float("nan"), "init_std must be finite and >= 0"),
    ])
    @pytest.mark.parametrize("command", ["refresh", "loss-audit"])
    def test_stored_objective_out_of_range_exits_2_naming_meta_json(self, workspace, capsys,
                                                                    command, key, value, message):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        _edit_model_meta(model, "objective", {key: value})
        capsys.readouterr()
        if command == "refresh":
            assert refresh(workspace, model, corpus) == 2
        else:
            assert main(["loss-audit", "--model", str(model), "--corpus", str(corpus)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {model}/meta.json: objective: {message}"]

    def test_meta_without_objective_still_loads(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus, extra=["--omega0", "0.01"])
        _edit_model_meta(model, "objective")
        assert refresh(workspace, model, corpus) == 0
        config = json.loads((workspace / "model2" / "manifest.json").read_text())["config"]
        assert config["omega0"] == 0.001  # the built-in default


class TestLossAudit:
    def test_prints_agreement_line(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        rc = main(["loss-audit", "--model", str(model), "--corpus", str(corpus)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bruteforce=" in out and "efficient=" in out and "rel_diff=" in out

    @pytest.mark.parametrize("command, flag, key, value, message", [
        ("loss-audit", "--omega0", "omega0", 2.0, "omega0 must be in (0, 1]"),
        ("loss-audit", "--lambda", "lam", float("inf"), "lambda must be finite and >= 0"),
        ("loss-audit", "--lambda", "lam", float("nan"), "lambda must be finite and >= 0"),
        ("loss-audit", "--init-std", "init_std", -1.0, "init_std must be finite and >= 0"),
        ("train", "--lambda", "lam", float("inf"), "lambda must be finite and >= 0"),
        ("train", "--lambda", "lam", float("nan"), "lambda must be finite and >= 0"),
        ("train", "--init-std", "init_std", float("nan"), "init_std must be finite and >= 0"),
        ("train", "--init-std", "init_std", float("inf"), "init_std must be finite and >= 0"),
        ("train", "--init-std", "init_std", -1.0, "init_std must be finite and >= 0"),
        ("smc", "--learning-rate", "learning_rate", float("nan"),
         "learning_rate must be finite and > 0"),
        ("smc", "--learning-rate", "learning_rate", float("inf"),
         "learning_rate must be finite and > 0"),
        ("smc", "--learning-rate", "learning_rate", 0.0, "learning_rate must be finite and > 0"),
        ("smc", "--init-std", "init_std", float("nan"), "init_std must be finite and >= 0"),
        ("smc", "--init-std", "init_std", -1.0, "init_std must be finite and >= 0"),
        ("smc", "--steps", "steps", -1, "steps must be >= 0"),
        ("smc", "--negatives", "negatives", -1, "negatives must be >= 0"),
        ("smc", "--batch-size", "batch_size", 0, "batch_size must be >= 1"),
        ("smc", "--dim", "dim", 0, "embedding dimension d must be >= 1"),
    ])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_out_of_range_omega0_is_config_error(self, workspace, capsys, how, command, flag,
                                                 key, value, message):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "pairs.tsv").write_text("apple\ta\n")
        argv = {"loss-audit": ["loss-audit", "--model", model, "--corpus", corpus],
                "train": ["train", "--corpus", corpus, "--out", workspace / "m"],
                "smc": ["train", "--corpus", corpus, "--out", workspace / "m", "--model", "smc",
                        "--pairs", workspace / "pairs.tsv",
                        # a flag beats --config, so the tested option is not also passed here
                        *(arg for pair in (("--dim", "4"), ("--steps", "2")) if pair[0] != flag
                          for arg in pair)]}[command]
        if how == "flag":
            argv += [flag, repr(value)]
        else:
            (workspace / "cfg.json").write_text(json.dumps({key: value}))
            argv += ["--config", workspace / "cfg.json"]
        capsys.readouterr()
        assert main([str(arg) for arg in argv]) == 1
        *notices, last = capsys.readouterr().err.strip().splitlines()  # loss-audit notes overrides
        assert last == f"config error: {message}"
        assert all(line.startswith("notice: ") for line in notices), notices
        assert not (workspace / "m").exists()


NON_ASCII_ITEMS = """\
{"id": "café", "words": ["crème", "brûlée", "dessert"]}
{"id": "naïve", "words": ["crème", "fraîche", "dessert"]}
{"id": "c", "words": ["red", "fire", "truck"]}
{"id": "d", "words": ["fast", "fire", "engine"]}
"""
NON_ASCII_SEQUENCES = "u1\tcafé,naïve,café,naïve\nu2\tc,d,c,d\nü3\tcafé,naïve\n"


class TestNonAsciiUnderCLocale:
    def zsr(self, ws, *argv):
        """Run zsr in the C locale with neither UTF-8 mode nor locale coercion:
        the locale's encoding is ASCII, so a read that relies on it fails."""
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHON"))}
        env.update(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(zsretrieval.__file__).parents[1]))
        return subprocess.run([sys.executable, "-X", "utf8=0", "-m", "zsretrieval.cli", *argv],
                              cwd=ws, env=env, capture_output=True, timeout=300)

    def test_round_trip(self, tmp_path):
        (tmp_path / "items.jsonl").write_bytes(NON_ASCII_ITEMS.encode())
        (tmp_path / "sequences.tsv").write_bytes(NON_ASCII_SEQUENCES.encode())
        (tmp_path / "queries.txt").write_bytes("crème\nfraîche dessert\n".encode())
        (tmp_path / "pairs.tsv").write_bytes("brûlée\tcafé\ncrème fraîche\tnaïve\n".encode())
        for argv in (["ingest", "--items", "items.jsonl", "--sequences", "sequences.tsv",
                      "--out", "corpus"],
                     ["train", "--corpus", "corpus", "--out", "model", "--model", "zsl_me",
                      "--dim", "4", "--sweeps", "2"],
                     ["retrieve", "--model", "model", "--corpus", "corpus",
                      "--queries", "queries.txt", "--out", "ret", "--k", "2"],
                     ["eval", "--model", "model", "--corpus", "corpus", "--out", "ev",
                      "--metric", "recall", "--pairs", "pairs.tsv", "--k", "2"]):
            proc = self.zsr(tmp_path, *argv)
            assert proc.returncode == 0, proc.stderr.decode()
        assert "café" in (tmp_path / "corpus" / "items.tsv").read_bytes().decode()
        results = (tmp_path / "ret" / "results.tsv").read_bytes().decode().splitlines()
        assert results[0] == "# query 0\tcrème"
        assert {line.split("\t")[1] for line in results[1:3]} == {"café", "naïve"}
        report = json.loads((tmp_path / "ev" / "report.json").read_bytes())
        assert report["scored"] == 2 and report["skipped"] == 0

    def test_undecodable_input_names_the_file(self, tmp_path):
        (tmp_path / "items.jsonl").write_bytes(b'{"id": "caf\xe9", "words": ["x"]}\n')
        proc = self.zsr(tmp_path, "ingest", "--items", "items.jsonl", "--out", "corpus")
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "data error: items.jsonl: not UTF-8 text (invalid continuation byte)"]



# Each case runs a command on a model and a corpus of other item and word
# counts (``fits`` is a model of that corpus); it must exit 2 with one line
# naming both directories.
MISMATCHED = {
    "retrieve": lambda ws, model, corpus, fits: [
        "retrieve", "--model", model, "--corpus", corpus, "--queries", ws / "q.txt",
        "--out", ws / "ret"],
    "eval": lambda ws, model, corpus, fits: [
        "eval", "--model", model, "--corpus", corpus, "--out", ws / "ev"],
    "ensemble-eval-primary": lambda ws, model, corpus, fits: [
        "ensemble-eval", "--primary", model, "--secondary", fits, "--corpus", corpus,
        "--pairs", ws / "pairs.tsv", "--out", ws / "ens"],
    "ensemble-eval-secondary": lambda ws, model, corpus, fits: [
        "ensemble-eval", "--primary", fits, "--secondary", model, "--corpus", corpus,
        "--pairs", ws / "pairs.tsv", "--out", ws / "ens"],
    "loss-audit": lambda ws, model, corpus, fits: [
        "loss-audit", "--model", model, "--corpus", corpus],
    "refresh-old-corpus": lambda ws, model, corpus, fits: [
        "refresh", "--model", model, "--old-corpus", corpus, "--new-corpus", ws / "corpus2",
        "--out", ws / "model3"],
}


@pytest.mark.parametrize("larger", [False, True], ids=["smaller-model", "larger-model"])
@pytest.mark.parametrize("case", sorted(MISMATCHED))
def test_model_of_another_corpus_exits_2_with_one_line(workspace, capsys, case, larger):
    small = train(workspace, ingest(workspace))  # 4 items
    large = train(workspace, grow(workspace), "model2")  # 5 items
    model, corpus, fits = ((large, workspace / "corpus", small) if larger
                           else (small, workspace / "corpus2", large))
    (workspace / "q.txt").write_text("apple\n")
    (workspace / "pairs.tsv").write_text("apple\ta\n")
    capsys.readouterr()
    assert main([str(arg) for arg in MISMATCHED[case](workspace, model, corpus, fits)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert f"model {model} " in err[0] and f"corpus {corpus} " in err[0]


# Each case gives one command a --config value that lacks its option's JSON
# type: (key, value, the command line without --config).
BAD_CONFIG = {
    "train-switch-as-string": ("use_weights", "false", lambda ws, corpus, model: [
        "train", "--corpus", corpus, "--out", ws / "m", "--model", "stl"]),
    "train-int-as-float": ("dim", 4.7, lambda ws, corpus, model: [
        "train", "--corpus", corpus, "--out", ws / "m", "--model", "stl"]),
    "eval-switch-as-string": ("by_length", "no", lambda ws, corpus, model: [
        "eval", "--model", model, "--corpus", corpus, "--out", ws / "ev", "--metric", "recall",
        "--pairs", ws / "pairs.tsv"]),
    "ingest-int-as-string": ("min_word_count", "2", lambda ws, corpus, model: [
        "ingest", "--items", ws / "items.jsonl", "--sequences", ws / "sequences.tsv",
        "--out", ws / "c2"]),
    "retrieve-int-as-string": ("k", "ten", lambda ws, corpus, model: [
        "retrieve", "--model", model, "--corpus", corpus, "--queries", ws / "q.txt",
        "--out", ws / "r"]),
    "ensemble-eval-int-as-string": ("head", "x", lambda ws, corpus, model: [
        "ensemble-eval", "--primary", model, "--secondary", model, "--corpus", corpus,
        "--pairs", ws / "pairs.tsv", "--out", ws / "ens"]),
    "refresh-int-as-string": ("sub_seed", "x", lambda ws, corpus, model: [
        "refresh", "--model", model, "--old-corpus", corpus, "--new-corpus", grow(ws),
        "--out", ws / "m2"]),
}


class TestConfigTypes:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIG))
    def test_value_of_another_type_exits_1_with_one_line(self, workspace, capsys, case):
        key, value, argv = BAD_CONFIG[case]
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "q.txt").write_text("apple\n")
        (workspace / "pairs.tsv").write_text("apple\ta\n")
        (workspace / "bad.json").write_text(json.dumps({key: value}))
        capsys.readouterr()
        argv = [str(arg) for arg in argv(workspace, corpus, model)]
        assert main([*argv, "--config", str(workspace / "bad.json")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {key}: "), err

    @pytest.mark.parametrize("command", ["retrieve", "eval"])
    def test_value_outside_the_choices_exits_1_with_one_line(self, workspace, capsys, command):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "q.txt").write_text("apple\n")
        (workspace / "bad.json").write_text(json.dumps({"score": "cosin"}))
        argv = {"retrieve": ["--queries", workspace / "q.txt"], "eval": []}[command]
        argv = [command, "--model", model, "--corpus", corpus, "--out", workspace / "o", *argv,
                "--config", workspace / "bad.json"]
        capsys.readouterr()
        assert main([str(arg) for arg in argv]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            'config error: score: expected one of "dot", "cosine", got "cosin"']

    def test_int_for_a_float_and_null_where_the_default_is_null(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "ok.json").write_text(json.dumps(
            {"omega0": 1, "sub_seed": None, "prune": False}))
        assert refresh(workspace, model, corpus, "--config", str(workspace / "ok.json")) == 0
        config = json.loads((workspace / "model2" / "manifest.json").read_text())["config"]
        assert (config["omega0"], config["sub_seed"], config["prune"]) == (1, None, False)


class TestModelDim:
    def test_refresh_manifest_records_the_model_d(self, workspace):
        corpus = ingest(workspace)
        assert refresh(workspace, train(workspace, corpus), corpus) == 0  # d=4, no --dim
        config = json.loads((workspace / "model2" / "manifest.json").read_text())["config"]
        assert config["dim"] == 4

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", ["refresh", "loss-audit"])
    def test_another_dim_exits_1_with_one_line(self, workspace, capsys, command, how):
        corpus = ingest(workspace)
        model = train(workspace, corpus)  # d=4
        (workspace / "dim.json").write_text(json.dumps({"dim": 8}))
        extra = ["--dim", "8"] if how == "flag" else ["--config", str(workspace / "dim.json")]
        capsys.readouterr()
        if command == "refresh":
            rc = refresh(workspace, model, corpus, *extra)
        else:
            rc = main(["loss-audit", "--model", str(model), "--corpus", str(corpus), *extra])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: dim: model {model} has d=4, not 8"]


@pytest.mark.parametrize("command", ["refresh", "loss-audit"])
def test_model_key_in_config_exits_1_where_the_model_gives_the_kind(workspace, capsys, command):
    corpus = ingest(workspace)
    model = train(workspace, corpus)
    (workspace / "kind.json").write_text(json.dumps({"model": "zsl_xx"}))
    extra = ["--config", str(workspace / "kind.json")]
    capsys.readouterr()
    if command == "refresh":
        rc = refresh(workspace, model, corpus, *extra)
    else:
        rc = main(["loss-audit", "--model", str(model), "--corpus", str(corpus), *extra])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "config error: unknown config key 'model'"]
    if command == "refresh":  # without the key: the manifest records the model's kind
        assert refresh(workspace, model, corpus) == 0
        config = json.loads((workspace / "model2" / "manifest.json").read_text())["config"]
        assert config["model"] == "zsl_te"


@pytest.mark.parametrize("command", ["retrieve", "eval"])
def test_model_of_a_corpus_with_other_ids_exits_2_with_one_line(workspace, capsys, command):
    model = train(workspace, ingest(workspace))
    (workspace / "items_r.jsonl").write_text(ITEMS.replace('"id": "a"', '"id": "z"'))
    (workspace / "sequences_r.tsv").write_text(SEQUENCES.replace("a", "z"))
    renamed = workspace / "corpus_r"
    assert main(["ingest", "--items", str(workspace / "items_r.jsonl"), "--sequences",
                 str(workspace / "sequences_r.tsv"), "--out", str(renamed)]) == 0
    meta = json.loads((model / "meta.json").read_text())
    assert (meta["n"], meta["m"]) == (len((renamed / "items.tsv").read_text().splitlines()),
                                      len((renamed / "vocab.tsv").read_text().splitlines()))
    (workspace / "q.txt").write_text("apple\n")
    argv = {"retrieve": ["--queries", workspace / "q.txt"], "eval": []}[command]
    argv = [command, "--model", model, "--corpus", renamed, "--out", workspace / "o", *argv]
    capsys.readouterr()
    assert main([str(arg) for arg in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert f"model {model} " in err[0] and f"corpus {renamed} " in err[0]
    _edit_model_meta(model, "ids_sha256")  # without the digest: n and m only
    assert main([str(arg) for arg in argv]) == 0


# The command-line surface, pinned: per subcommand, its parser actions in
# order as (option strings, dest, type, choices, const, default, required,
# action class without its "_" and "Action").
HELP = ("-h --help", "help", None, None, None, argparse.SUPPRESS, False, "Help")
COMMON = [("--config", "config", None, None, None, None, False, "Store"),
          ("--threads", "threads", int, None, None, None, False, "Store")]
SL_FLAGS = [
    ("--dim", "dim", int, None, None, None, False, "Store"),
    ("--omega0", "omega0", float, None, None, None, False, "Store"),
    ("--lambda", "lam", float, None, None, None, False, "Store"),
    ("--sweeps", "sweeps", int, None, None, None, False, "Store"),
    ("--seed", "seed", int, None, None, None, False, "Store"),
    ("--init-std", "init_std", float, None, None, None, False, "Store"),
    ("--no-weights", "use_weights", None, None, False, None, False, "StoreConst"),
    ("--unweighted-negatives", "weight_negatives", None, None, False, None, False, "StoreConst"),
    ("--exclude-self-negative", "exclude_self_negative", None, None, True, None, False,
     "StoreConst"),
    ("--task1-encoded", "task1_encoded", None, None, True, None, False, "StoreConst"),
]
SURFACE = {
    "ingest": [
        HELP,
        ("--items", "items", None, None, None, None, True, "Store"),
        ("--sequences", "sequences", None, None, None, None, False, "Store"),
        ("--graph", "graph", None, None, None, None, False, "Store"),
        ("--out", "out", None, None, None, None, True, "Store"),
        ("--min-word-count", "min_word_count", int, None, None, None, False, "Store"),
        ("--min-item-count", "min_item_count", int, None, None, None, False, "Store"),
        ("--max-neighbors", "max_neighbors", int, None, None, None, False, "Store"),
        ("--window", "window", int, None, None, None, False, "Store"),
        ("--symmetrize", "symmetrize", None, None, True, None, False, "StoreConst"),
        *COMMON,
    ],
    "train": [
        HELP,
        ("--corpus", "corpus", None, None, None, None, True, "Store"),
        ("--out", "out", None, None, None, None, True, "Store"),
        ("--pairs", "pairs", None, None, None, None, False, "Store"),
        ("--model", "model", None, ("stl", "zsl_me", "zsl_te", "smc"), None, None, False,
         "Store"),
        *SL_FLAGS,
        ("--negatives", "negatives", int, None, None, None, False, "Store"),
        ("--batch-size", "batch_size", int, None, None, None, False, "Store"),
        ("--learning-rate", "learning_rate", float, None, None, None, False, "Store"),
        ("--steps", "steps", int, None, None, None, False, "Store"),
        ("--sampling", "sampling", None, ("uniform", "log_uniform"), None, None, False, "Store"),
        *COMMON,
    ],
    "retrieve": [
        HELP,
        ("--model", "model", None, None, None, None, True, "Store"),
        ("--corpus", "corpus", None, None, None, None, True, "Store"),
        ("--queries", "queries", None, None, None, None, True, "Store"),
        ("--out", "out", None, None, None, None, True, "Store"),
        ("--k", "k", int, None, None, None, False, "Store"),
        ("--score", "score", None, ("dot", "cosine"), None, None, False, "Store"),
        ("--no-bigrams", "bigrams", None, None, False, None, False, "StoreConst"),
        *COMMON,
    ],
    "eval": [
        HELP,
        ("--model", "model", None, None, None, None, True, "Store"),
        ("--corpus", "corpus", None, None, None, None, True, "Store"),
        ("--out", "out", None, None, None, None, True, "Store"),
        ("--metric", "metric", None, ("reconstruction", "pooled", "recall"), None, None, False,
         "Store"),
        ("--labeled", "labeled", None, None, None, None, False, "Store"),
        ("--pairs", "pairs", None, None, None, None, False, "Store"),
        ("--k", "k", int, None, None, None, False, "Store"),
        ("--score", "score", None, ("dot", "cosine"), None, None, False, "Store"),
        ("--by-length", "by_length", None, None, True, None, False, "StoreConst"),
        *COMMON,
    ],
    "ensemble-eval": [
        HELP,
        ("--primary", "primary", None, None, None, None, True, "Store"),
        ("--secondary", "secondary", None, None, None, None, True, "Store"),
        ("--corpus", "corpus", None, None, None, None, True, "Store"),
        ("--pairs", "pairs", None, None, None, None, True, "Store"),
        ("--out", "out", None, None, None, None, True, "Store"),
        ("--k", "k", int, None, None, None, False, "Store"),
        ("--head", "head", int, None, None, None, False, "Store"),
        *COMMON,
    ],
    "refresh": [
        HELP,
        ("--model", "model", None, None, None, None, True, "Store"),
        ("--old-corpus", "old_corpus", None, None, None, None, True, "Store"),
        ("--new-corpus", "new_corpus", None, None, None, None, True, "Store"),
        ("--out", "out", None, None, None, None, True, "Store"),
        ("--prune", "prune", None, None, True, None, False, "StoreConst"),
        ("--sub-seed", "sub_seed", int, None, None, None, False, "Store"),
        *SL_FLAGS,
        *COMMON,
    ],
    "loss-audit": [
        HELP,
        ("--model", "model", None, None, None, None, True, "Store"),
        ("--corpus", "corpus", None, None, None, None, True, "Store"),
        *SL_FLAGS,
        *COMMON,
    ],
}
SL_KEYS = {"model", "dim", "omega0", "lam", "sweeps", "seed", "init_std", "use_weights",
           "weight_negatives", "exclude_self_negative", "task1_encoded"}
CONFIG_KEYS = {
    "ingest": {"min_word_count", "min_item_count", "max_neighbors", "window", "symmetrize"},
    "train": SL_KEYS | {"negatives", "batch_size", "learning_rate", "steps", "sampling"},
    "refresh": SL_KEYS | {"prune", "sub_seed"},
}


class TestSurface:
    def test_parser_actions_are_pinned(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: [(" ".join(a.option_strings), a.dest, a.type,
                    None if a.choices is None else tuple(a.choices), a.const, a.default,
                    a.required, type(a).__name__.strip("_").removesuffix("Action"))
                   for a in sp._actions]
            for name, sp in sub.choices.items()}
        assert list(surface) == list(SURFACE)
        for name, actions in SURFACE.items():
            assert surface[name] == actions, name

    def test_manifest_config_keys(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        assert refresh(workspace, model, corpus) == 0
        for command, out in (("ingest", corpus), ("train", model),
                             ("refresh", workspace / "model2")):
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert set(config) == CONFIG_KEYS[command], command


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


def _edit_model_meta(model, key, value=None):
    """Set one meta.json key of a trained model; None deletes it."""
    meta = json.loads((model / "meta.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (model / "meta.json").write_text(json.dumps(meta))


# Each case damages one input; the command must exit 2 with one line.
MALFORMED = {
    "graph-count-not-an-integer": (
        lambda ws, c: (ws / "graph.tsv").write_text("a\tb\tthree\n"), "ingest-graph"),
    "item-id-with-a-tab": (
        lambda ws, c: _rewrite(ws / "items.jsonl", "\n", '\n{"id": "e\\tx", "words": []}\n'),
        "ingest"),
    "item-id-with-a-comma": (
        lambda ws, c: _rewrite(ws / "items.jsonl", "\n", '\n{"id": "e,f", "words": []}\n'),
        "ingest"),
    "item-id-repeated": (
        lambda ws, c: _rewrite(ws / "items.jsonl", "\n", '\n{"id": "a", "words": []}\n'),
        "ingest"),
    "item-id-a-lone-surrogate": (
        lambda ws, c: _rewrite(ws / "items.jsonl", "\n", '\n{"id": "\\ud800", "words": []}\n'),
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
    "model-meta-without-kind": (lambda ws, c: _edit_model_meta(ws / "model", "kind"), "retrieve"),
    "model-meta-without-n": (lambda ws, c: _edit_model_meta(ws / "model", "n"), "retrieve"),
    "model-meta-m-not-an-integer": (
        lambda ws, c: _edit_model_meta(ws / "model", "m", 9.5), "retrieve"),
    "model-meta-d-a-string": (lambda ws, c: _edit_model_meta(ws / "model", "d", "4"), "retrieve"),
    "model-meta-seed-a-boolean": (
        lambda ws, c: _edit_model_meta(ws / "model", "seed", True), "retrieve"),
    "model-meta-without-sweep-count": (
        lambda ws, c: _edit_model_meta(ws / "model", "sweep_count"), "retrieve"),
    "model-meta-objective-not-an-object": (
        lambda ws, c: _edit_model_meta(ws / "model", "objective", [0.01]), "retrieve"),
    "model-meta-objective-lam-a-string": (
        lambda ws, c: _edit_model_meta(ws / "model", "objective", {"lam": "4"}), "retrieve"),
    "model-meta-objective-omega0-out-of-range": (
        lambda ws, c: _edit_model_meta(ws / "model", "objective", {"omega0": 2.0}), "retrieve"),
    "model-meta-without-score-mode": (
        lambda ws, c: _edit_model_meta(ws / "model", "score_mode"), "retrieve"),
    "model-meta-objective-unknown-field": (
        lambda ws, c: _edit_model_meta(ws / "model", "objective", {"sweeps": 3}), "retrieve"),
    "labeled-relevant-not-a-list": (
        lambda ws, c: (ws / "labeled.jsonl").write_text('{"query": ["apple"], "relevant": 5}\n'),
        "eval-pooled"),
    "labeled-query-not-a-list": (
        lambda ws, c: (ws / "labeled.jsonl").write_text('{"query": 7, "relevant": ["a"]}\n'),
        "eval-pooled"),
    "labeled-relevant-empty": (
        lambda ws, c: (ws / "labeled.jsonl").write_text('{"query": ["apple"], "relevant": []}\n'),
        "eval-pooled"),
    "labeled-set-name-not-a-string": (
        lambda ws, c: (ws / "labeled.jsonl").write_text(
            '{"query": ["apple"], "relevant": ["a"], "set": ["x"]}\n'), "eval-pooled"),
    "labeled-relevant-id-a-number": (
        lambda ws, c: (ws / "labeled.jsonl").write_text(
            '{"query": ["apple"], "relevant": ["a", 3]}\n'), "eval-pooled"),
    "items-not-utf8": (
        lambda ws, c: (ws / "items.jsonl").write_bytes(
            ITEMS.encode() + b'{"id": "e", "words": ["caf\xe9"]}\n'), "ingest"),
    "queries-not-utf8": (lambda ws, c: (ws / "q.txt").write_bytes(b"apple\n\xff\n"), "retrieve"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_line(workspace, capsys, case):
    damage, command = MALFORMED[case]
    corpus = ingest(workspace)
    if command in ("retrieve", "eval-pooled"):
        model = train(workspace, corpus)
    (workspace / "q.txt").write_text("apple\n")
    capsys.readouterr()
    damage(workspace, corpus)
    if command == "train":
        argv = ["train", "--corpus", str(corpus), "--out", str(workspace / "m"),
                "--model", "zsl_te", "--dim", "2", "--sweeps", "1"]
    elif command == "retrieve":
        argv = ["retrieve", "--model", str(model), "--corpus", str(corpus),
                "--queries", str(workspace / "q.txt"), "--out", str(workspace / "ret")]
    elif command == "eval-pooled":
        argv = ["eval", "--model", str(model), "--corpus", str(corpus),
                "--out", str(workspace / "ev"), "--metric", "pooled",
                "--labeled", str(workspace / "labeled.jsonl")]
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
