"""End-to-end runs of the zsr command line through main()."""
import argparse
import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zsretrieval
from zsretrieval import binio, evaluation
from zsretrieval.cli import build_parser, main
from zsretrieval.corpus import ADJ_MAGIC, WORDS_MAGIC
from zsretrieval.errors import RANGES, ConfigError, NumericError, ZsrError

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

SRC = str(Path(zsretrieval.__file__).parents[1])  # for zsr run as a child process


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

    def test_threads_limiter_is_held_for_the_command(self, workspace, monkeypatch):
        # A stand-in threadpoolctl: main enters the limiter and exits it,
        # also when the command fails.
        events = []

        class Limits:
            def __init__(self, limits):
                events.append(("limits", limits))

            def __enter__(self):
                events.append("enter")
                return self

            def __exit__(self, *exc):
                events.append("exit")

        stub = type(sys)("threadpoolctl")
        stub.threadpool_limits = Limits
        monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
        assert main(["ingest", "--items", str(workspace / "items.jsonl"),
                     "--out", str(workspace / "c1"), "--threads", "2"]) == 0
        manifest = json.loads((workspace / "c1" / "manifest.json").read_text())
        assert manifest["threads"] == {"requested": 2, "applied": True}
        assert events == [("limits", 2), "enter", "exit"]
        events.clear()
        assert main(["ingest", "--items", str(workspace / "nope.jsonl"),
                     "--out", str(workspace / "c2"), "--threads", "1"]) == 2
        assert events == [("limits", 1), "enter", "exit"]

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

    def test_window_past_the_longest_sequence_writes_the_same_corpus(self, workspace):
        # The longest sequence holds 4 items; a window of 10**9 stops at their
        # spacing, where it would otherwise run 10**9 steps.
        for window in ("4", str(10 ** 9)):
            argv = ["ingest", "--items", str(workspace / "items.jsonl"), "--sequences",
                    str(workspace / "sequences.tsv"), "--window", window,
                    "--out", str(workspace / window)]
            done = subprocess.run([sys.executable, "-m", "zsretrieval.cli", *argv],
                                  capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": SRC})
            assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
        corpus = sorted(p.name for p in (workspace / "4").iterdir() if p.name != "manifest.json")
        assert "adjacency.bin" in corpus
        for name in corpus:
            assert ((workspace / "4" / name).read_bytes()
                    == (workspace / str(10 ** 9) / name).read_bytes()), name

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

    # An option out of range is refused before any input is read, so it wins
    # over the unknown id in sequences.tsv; the message names the field.
    @pytest.mark.parametrize("by_config", [False, True])
    @pytest.mark.parametrize("flag, key, value, message", [
        ("--window", "window", 0, "window must be >= 1"),
        ("--max-neighbors", "max_neighbors", 0, "max_neighbors must be >= 1"),
        ("--min-word-count", "min_word_count", -1, "min_word_count must be >= 0"),
        ("--min-item-count", "min_item_count", -1, "min_item_count must be >= 0"),
    ])
    def test_out_of_range_option_is_config_error(self, workspace, capsys, by_config,
                                                 flag, key, value, message):
        (workspace / "sequences.tsv").write_text("u1\ta,zzz\n")
        argv = ["ingest", "--items", str(workspace / "items.jsonl"),
                "--sequences", str(workspace / "sequences.tsv"), "--out", str(workspace / "corpus")]
        if by_config:
            (workspace / "cfg.json").write_text(json.dumps({key: value}))
            argv += ["--config", str(workspace / "cfg.json")]
        else:
            argv += [flag, str(value)]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not (workspace / "corpus").exists()


class TestTrain:
    def test_writes_model_trace_manifest(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        assert (model / "manifest.json").exists()
        trace = (model / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == ("sweep,loss_total,loss_task1,loss_task2,loss_reg,seconds,"
                            "seconds_V,seconds_U,seconds_W,fallbacks_lstsq,rows_lowrank,"
                            "fallbacks_lowrank")
        assert len(trace) == 6  # header + initial + 4 sweeps
        counts = [row.split(",")[-2:] for row in trace[1:]]
        assert counts[0] == ["0", "0"]  # the initial state solved nothing
        assert all(int(low) > 0 and fallbacks == "0" for low, fallbacks in counts[1:])
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

    @pytest.mark.parametrize("text, code, start", [
        ("{", 2, "data error: --config {}: Expecting property name"),
        ("[4]", 1, "config error: --config must contain a JSON object"),
    ], ids=["not-json", "not-an-object"])
    def test_config_file_not_a_json_object(self, workspace, capsys, text, code, start):
        corpus = ingest(workspace)
        cfgfile = workspace / "bad.json"
        cfgfile.write_text(text)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--out", str(workspace / "m"),
                   "--config", str(cfgfile)])
        assert rc == code
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(start.format(cfgfile))
        assert not (workspace / "m").exists()

    def test_uncastable_config_value_is_config_error(self, workspace, capsys):
        corpus = ingest(workspace)
        (workspace / "train.json").write_text(json.dumps({"dim": "four"}))
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--out", str(workspace / "m"),
                   "--config", str(workspace / "train.json")])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            'config error: dim: expected int, got "four"']

    @pytest.mark.parametrize("key, extra", [
        ("lam", []), ("init_std", []),
        ("learning_rate", ["--model", "smc", "--pairs", "pairs.tsv"]),
    ], ids=["lam", "init_std", "smc-learning_rate"])
    def test_config_int_beyond_float_range_is_config_error(self, workspace, capsys, key, extra):
        corpus = ingest(workspace)
        (workspace / "pairs.tsv").write_text("apple\ta\n")
        (workspace / "train.json").write_text(f'{{"{key}": 1{"0" * 400}}}')
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--out", str(workspace / "m"), *extra,
                   "--dim", "2", "--config", str(workspace / "train.json")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key}: expected float, got 1{'0' * 400}"]
        assert not (workspace / "m").exists()

    def test_config_int_for_a_float_is_kept_as_written(self, workspace):
        corpus = ingest(workspace)
        (workspace / "train.json").write_text('{"lam": 3, "init_std": 0.5}')
        rc = main(["train", "--corpus", str(corpus), "--out", str(workspace / "m"),
                   "--dim", "2", "--sweeps", "1", "--config", str(workspace / "train.json")])
        assert rc == 0
        config = json.loads((workspace / "m" / "manifest.json").read_text())["config"]
        assert (config["lam"], config["init_std"]) == (3, 0.5)
        assert type(config["lam"]) is int

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

    @pytest.mark.parametrize("sampling", ["uniform", "log_uniform"])
    def test_smc_on_one_item_corpus(self, workspace, capsys, sampling):
        # No negative can be drawn: both samplings train and exit 0.
        (workspace / "items.jsonl").write_text('{"id": "a", "words": ["red", "apple"]}\n')
        rc = main(["ingest", "--items", str(workspace / "items.jsonl"),
                   "--out", str(workspace / "corpus")])
        assert rc == 0
        (workspace / "pairs.tsv").write_text("apple\ta\nred apple\ta\n")
        rc = main(["train", "--corpus", str(workspace / "corpus"), "--out", str(workspace / "smc"),
                   "--model", "smc", "--pairs", str(workspace / "pairs.tsv"), "--dim", "4",
                   "--steps", "5", "--sampling", sampling])
        assert rc == 0
        assert capsys.readouterr().err == ""

    # Bad pairs are bad data: exit 2, one line naming the file (and the line).
    @pytest.mark.parametrize("text, lineno", [
        ("zzz\ta\n", 1),
        ("apple\ta\n\nzzz qqq\tb\n", 3),
        ("", None),
        ("\n\n", None),
    ])
    def test_smc_bad_pairs_are_data_errors(self, workspace, capsys, text, lineno):
        corpus = ingest(workspace)
        pairs = workspace / "pairs.tsv"
        pairs.write_text(text)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--out", str(workspace / "smc"),
                   "--model", "smc", "--pairs", str(pairs), "--dim", "4", "--steps", "5"])
        assert rc == 2
        want = (f"{pairs}:{lineno}: query has no in-vocabulary words" if lineno
                else f"{pairs}: no training pairs")
        assert capsys.readouterr().err.strip().splitlines() == [f"data error: {want}"]
        assert not (workspace / "smc").exists()


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
        monkeypatch.setattr(cli, "QUERY_LINES", 4)
        argv = ["retrieve", "--model", str(model), "--corpus", str(corpus),
                "--queries", str(workspace / "q.txt"), "--k", "2"]
        assert main(argv + ["--out", str(workspace / "small")]) == 0
        small = capsys.readouterr().out
        monkeypatch.setattr(cli, "QUERY_LINES", 1000)
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

    def test_model_digest_leaves_out_run_records(self, workspace):
        # Two equal trainings differ only in their loss traces' timings; a
        # changed W.bin changes the digest.
        corpus = ingest(workspace)
        (workspace / "q.txt").write_text("apple\n")

        def digest(model):
            assert main(["retrieve", "--model", str(model), "--corpus", str(corpus),
                         "--queries", str(workspace / "q.txt"),
                         "--out", str(workspace / "ret")]) == 0
            manifest = json.loads((workspace / "ret" / "manifest.json").read_text())
            return manifest["inputs"]["model"]["sha256"]

        first, second = train(workspace, corpus), train(workspace, corpus, "model2")
        assert digest(first) == digest(second)
        W = binio.read_matrix(second / "W.bin", b"ZSRMAT_W").copy()
        W[0, 0] += 1
        binio.write_matrix(second / "W.bin", b"ZSRMAT_W", W)
        assert digest(first) != digest(second)

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


# A k below 1, or an ensemble head below 0, is refused before any input is
# read: case -> (argv, key, value, text of in.txt or None). The corpus and
# model are "corpus" and "model" in the working directory.
RANKING_CASES = {
    "retrieve-k0-no-queries": (["retrieve", "--queries", "in.txt"], "k", 0, ""),
    "retrieve-k-3-no-queries": (["retrieve", "--queries", "in.txt"], "k", -3, ""),
    "retrieve-k0-one-query": (["retrieve", "--queries", "in.txt"], "k", 0, "apple\n"),
    "eval-recall-k0-no-pairs": (["eval", "--metric", "recall", "--pairs", "in.txt"], "k", 0, ""),
    "eval-reconstruction-k-7": (["eval", "--metric", "reconstruction"], "k", -7, None),
    "ensemble-eval-k0-no-pairs": (["ensemble-eval", "--pairs", "in.txt"], "k", 0, ""),
    "ensemble-eval-head-1": (["ensemble-eval", "--pairs", "in.txt"], "head", -1, "apple\ta\n"),
}


@pytest.mark.parametrize("inputs", ["given", "absent"])
@pytest.mark.parametrize("by_config", [False, True])
@pytest.mark.parametrize("case", sorted(RANKING_CASES))
def test_bad_k_or_head_exits_1_before_reading_input(workspace, capsys, monkeypatch,
                                                     case, by_config, inputs):
    argv, key, value, text = RANKING_CASES[case]
    models = (["--primary", "model", "--secondary", "model"] if argv[0] == "ensemble-eval"
              else ["--model", "model"])
    argv = [*argv, *models, "--corpus", "corpus", "--out", "out"]
    monkeypatch.chdir(workspace)
    if inputs == "given":  # absent inputs would exit 2 if they were read
        train(workspace, ingest(workspace))
        if text is not None:
            Path("in.txt").write_text(text)
    if by_config:
        Path("cfg.json").write_text(json.dumps({key: value}))
        argv += ["--config", "cfg.json"]
    else:
        argv += [f"--{key}", str(value)]
    capsys.readouterr()
    assert main(argv) == 1
    message = "k must be >= 1" if key == "k" else "head must be >= 0"
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
    assert not Path("out").exists()


# A k (or head) above the int64 range asks for every item, as any k above the
# item count does: case -> argv without --k. Each runs with --k 10**12 and
# --k 10**20 and must write the same items and recalls, without a traceback.
HUGE_K = {
    "retrieve": ["retrieve", "--model", "model", "--queries", "q.txt"],
    "eval-recall": ["eval", "--model", "model", "--metric", "recall", "--pairs", "pairs.tsv"],
    "ensemble-eval": ["ensemble-eval", "--primary", "model", "--secondary", "model",
                      "--pairs", "pairs.tsv"],
    "ensemble-eval-head": ["ensemble-eval", "--primary", "model", "--secondary", "model",
                           "--pairs", "pairs.tsv", "--head", str(10 ** 20)],
}


@pytest.mark.parametrize("case", sorted(HUGE_K))
def test_k_above_the_int64_range_ranks_every_item(workspace, capsys, monkeypatch, case):
    monkeypatch.chdir(workspace)
    train(workspace, ingest(workspace))
    Path("q.txt").write_text("apple\nfire truck\n")
    Path("pairs.tsv").write_text("apple\ta\nfire\tc\n")
    written = []
    for k in (10 ** 12, 10 ** 20):
        capsys.readouterr()
        assert main([*HUGE_K[case], "--corpus", "corpus", "--out", f"out{k}", "--k", str(k)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        if case == "retrieve":
            written.append(Path(f"out{k}/results.tsv").read_text())
        else:
            report = json.loads(Path(f"out{k}/report.json").read_text())
            assert report.pop("k") == k
            report.pop("head_len", None)
            written.append(report)
    assert written[0] == written[1]
    if case == "retrieve":
        assert written[0].count("\n4\t") == 2  # all 4 items for each query


EVAL = ["eval", "--model", "model", "--corpus", "corpus"]
# An eval option its metric never reads or an input it needs and was not
# given, a train --pairs or option its model never reads or needs, a
# --threads below 1 in any command, and a dimension no block file can store
# (its column count is a uint32), are refused before any input is read:
# case -> (argv, --config object or None, message). No input exists, so
# reading one would exit 2.
REFUSED = {
    "eval-reconstruction-k-by-length-pairs": (
        [*EVAL, "--k", "3", "--by-length", "--pairs", "pairs.tsv"], None,
        "k, by_length, --pairs act only on the recall metric"),
    "eval-reconstruction-pairs": ([*EVAL, "--pairs", "pairs.tsv"], None,
                                  "--pairs act only on the recall metric"),
    "eval-pooled-k-config": ([*EVAL, "--metric", "pooled", "--labeled", "labeled.jsonl"],
                             {"k": 3}, "k act only on the recall metric"),
    "eval-pooled-by-length-config": ([*EVAL, "--metric", "pooled", "--labeled", "labeled.jsonl"],
                                     {"by_length": True}, "by_length act only on the recall metric"),
    "eval-recall-labeled": ([*EVAL, "--metric", "recall", "--pairs", "pairs.tsv",
                             "--labeled", "labeled.jsonl"], None,
                            "--labeled acts only on the pooled metric"),
    "eval-reconstruction-labeled": ([*EVAL, "--labeled", "labeled.jsonl"], None,
                                    "--labeled acts only on the pooled metric"),
    "eval-pooled-without-labeled": ([*EVAL, "--metric", "pooled"], None,
                                    "--labeled is required for the pooled metric"),
    "eval-recall-without-pairs": ([*EVAL, "--metric", "recall"], None,
                                  "--pairs is required for the recall metric"),
    "eval-range-before-unread": ([*EVAL, "--k", "-7", "--by-length"], None, "k must be >= 1"),
    "ingest-threads-4": (["ingest", "--items", "items.jsonl", "--threads", "-4"], None,
                         "threads must be >= 1"),
    "train-default-model-pairs": (["train", "--corpus", "corpus", "--pairs", "pairs.tsv"], None,
                                  "--pairs acts only on the smc model"),
    "train-smc-config-without-pairs": (["train", "--corpus", "corpus"], {"model": "smc"},
                                       "--pairs is required for the smc model"),
    "train-zsl_te-steps": (["train", "--corpus", "corpus", "--model", "zsl_te", "--steps", "5"],
                           None, "steps act only on the smc model"),
    "train-default-model-smc-options-config": (
        ["train", "--corpus", "corpus"], {"sampling": "log_uniform", "steps": 5},
        "steps, sampling act only on the smc model"),
    "train-smc-omega0-lambda": (["train", "--corpus", "corpus", "--model", "smc", "--pairs",
                                 "pairs.tsv", "--omega0", "0.5", "--lambda", "2"], None,
                                "omega0, lam act only on the square-loss models"),
    "train-dim-2-32": (["train", "--corpus", "corpus", "--dim", str(2 ** 32)], None,
                       "embedding dimension d must be >= 1 and < 2^32"),
    "train-dim-1e20-config": (["train", "--corpus", "corpus"], {"dim": 10 ** 20},
                              "embedding dimension d must be >= 1 and < 2^32"),
    "train-smc-dim-1e20": (["train", "--corpus", "corpus", "--model", "smc", "--pairs",
                            "pairs.tsv", "--dim", str(10 ** 20)], None,
                           "embedding dimension d must be >= 1 and < 2^32"),
    "train-smc-dim-2-32-config": (["train", "--corpus", "corpus", "--pairs", "pairs.tsv"],
                                  {"model": "smc", "dim": 2 ** 32},
                                  "embedding dimension d must be >= 1 and < 2^32"),
    "train-smc-square-loss-options-config": (
        ["train", "--corpus", "corpus", "--pairs", "pairs.tsv"],
        {"model": "smc", "use_weights": False, "sweeps": 3},
        "sweeps, use_weights act only on the square-loss models"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_option_exits_1_before_reading_input(tmp_path, capsys, monkeypatch, case):
    argv, config, message = REFUSED[case]
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    assert main([*argv, "--out", "out"]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
    assert not Path("out").exists()


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


@pytest.mark.parametrize("command", ["refresh", "loss-audit"])
def test_smc_model_is_refused_once_loaded(workspace, capsys, command):
    corpus = ingest(workspace)
    (workspace / "pairs.tsv").write_text("apple\ta\nfire\tc\n")
    assert main(["train", "--corpus", str(corpus), "--out", str(workspace / "smc"),
                 "--model", "smc", "--pairs", str(workspace / "pairs.tsv"), "--dim", "4",
                 "--steps", "5"]) == 0
    before = sorted(workspace.rglob("*"))
    capsys.readouterr()
    # The new corpus does not exist: the refusal comes before it is read.
    argv = {"refresh": ["refresh", "--model", str(workspace / "smc"), "--old-corpus", str(corpus),
                        "--new-corpus", str(workspace / "missing"), "--out",
                        str(workspace / "m2")],
            "loss-audit": ["loss-audit", "--model", str(workspace / "smc"),
                           "--corpus", str(corpus)]}[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", [
        "config error: kind 'smc' is not square-loss trainable; "
        "square-loss kinds: stl, zsl_me, zsl_te"])
    assert sorted(workspace.rglob("*")) == before


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

    def test_disagreeing_loss_paths_exit_3_after_the_line(self, workspace, capsys, monkeypatch):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        monkeypatch.setattr("zsretrieval.cli.sl_loss_efficient",
                            lambda state, corpus, config: 7.0)
        capsys.readouterr()
        assert main(["loss-audit", "--model", str(model), "--corpus", str(corpus)]) == 3
        captured = capsys.readouterr()
        out, err = captured.out.splitlines(), captured.err.splitlines()
        assert len(out) == 1 and out[0].startswith("bruteforce=") and " efficient=7 " in out[0]
        rel = float(out[0].rsplit("rel_diff=", 1)[1])
        assert rel > 1e-8
        assert err == [f"numeric failure: loss paths disagree: relative difference {rel:.3e}"]

    def test_u_block_of_another_shape_exits_2_with_one_line(self, workspace, capsys):
        corpus = ingest(workspace)
        model = train(workspace, corpus, extra=["--model", "zsl_me"])
        binio.write_matrix(model / "U.bin", b"ZSRMAT_U", np.zeros((2, 4), np.float32))
        capsys.readouterr()
        assert main(["loss-audit", "--model", str(model), "--corpus", str(corpus)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "data error: matrix shapes disagree with meta.json"]

    @pytest.mark.parametrize("command, flag, key, value, message", [
        ("loss-audit", "--omega0", "omega0", 2.0, "omega0 must be in (0, 1]"),
        ("loss-audit", "--lambda", "lam", float("inf"), "lambda must be finite and >= 0"),
        ("loss-audit", "--lambda", "lam", float("nan"), "lambda must be finite and >= 0"),
        ("refresh", "--init-std", "init_std", -1.0, "init_std must be finite and >= 0"),
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
        ("smc", "--dim", "dim", 0, "embedding dimension d must be >= 1 and < 2^32"),
        ("smc", "--seed", "seed", -1, "seed must be >= 0"),
    ])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_out_of_range_omega0_is_config_error(self, workspace, capsys, how, command, flag,
                                                 key, value, message):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        (workspace / "pairs.tsv").write_text("apple\ta\n")
        argv = {"loss-audit": ["loss-audit", "--model", model, "--corpus", corpus],
                "refresh": ["refresh", "--model", model, "--old-corpus", corpus,
                            "--new-corpus", corpus, "--out", workspace / "m"],
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
        *notices, last = capsys.readouterr().err.strip().splitlines()  # the model's override notes
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
                   PYTHONPATH=SRC)
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
            "zsr: unrecognized arguments: --dim 8" if how == "flag"
            else "config error: unknown config key 'dim'"]
        assert not (workspace / "model2").exists()


# The options refresh and loss-audit dropped, which their runs never read,
# but --dim (TestModelDim): (command, flag, config key, value). argparse
# names the unknown option of a subcommand from the top parser, as "zsr:".
REMOVED = [("refresh", "--seed", "seed", 9), ("loss-audit", "--sweeps", "sweeps", 7),
           ("loss-audit", "--seed", "seed", 3), ("loss-audit", "--init-std", "init_std", 0.5)]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command, flag, key, value", REMOVED)
def test_removed_option_exits_1_with_one_line(workspace, capsys, command, flag, key, value,
                                              how):
    corpus = ingest(workspace)
    model = train(workspace, corpus)
    (workspace / "cfg.json").write_text(json.dumps({key: value}))
    extra = [flag, str(value)] if how == "flag" else ["--config", str(workspace / "cfg.json")]
    before = sorted(workspace.rglob("*"))
    capsys.readouterr()
    if command == "refresh":
        rc = main(["refresh", "--model", str(model), "--old-corpus", str(corpus),
                   "--new-corpus", str(corpus), "--out", str(workspace / "model2"), *extra])
    else:
        rc = main(["loss-audit", "--model", str(model), "--corpus", str(corpus), *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"zsr: unrecognized arguments: {flag} {value}" if how == "flag"
        else f"config error: unknown config key {key!r}"]
    assert sorted(workspace.rglob("*")) == before


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
OMEGA0_LAMBDA = [("--omega0", "omega0", float, None, None, None, False, "Store"),
                 ("--lambda", "lam", float, None, None, None, False, "Store")]
SWEEPS = ("--sweeps", "sweeps", int, None, None, None, False, "Store")
INIT_STD = ("--init-std", "init_std", float, None, None, None, False, "Store")
SWITCHES = [
    ("--no-weights", "use_weights", None, None, False, None, False, "StoreConst"),
    ("--unweighted-negatives", "weight_negatives", None, None, False, None, False, "StoreConst"),
    ("--exclude-self-negative", "exclude_self_negative", None, None, True, None, False,
     "StoreConst"),
    ("--task1-encoded", "task1_encoded", None, None, True, None, False, "StoreConst"),
]
SL_FLAGS = [("--dim", "dim", int, None, None, None, False, "Store"), *OMEGA0_LAMBDA, SWEEPS,
            ("--seed", "seed", int, None, None, None, False, "Store"), INIT_STD, *SWITCHES]
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
        SWEEPS,
        *OMEGA0_LAMBDA,
        INIT_STD,
        *SWITCHES,
        *COMMON,
    ],
    "loss-audit": [
        HELP,
        ("--model", "model", None, None, None, None, True, "Store"),
        ("--corpus", "corpus", None, None, None, None, True, "Store"),
        *OMEGA0_LAMBDA,
        *SWITCHES,
        *COMMON,
    ],
}
SL_KEYS = {"model", "dim", "omega0", "lam", "sweeps", "seed", "init_std", "use_weights",
           "weight_negatives", "exclude_self_negative", "task1_encoded"}
CONFIG_KEYS = {
    "ingest": {"min_word_count", "min_item_count", "max_neighbors", "window", "symmetrize"},
    "train": SL_KEYS | {"negatives", "batch_size", "learning_rate", "steps", "sampling"},
    "refresh": (SL_KEYS - {"seed"}) | {"prune", "sub_seed"},
}
# Per subcommand, the config key -> default of each option it declares.
LOSS_DEFAULTS = {"omega0": 0.001, "lam": 4.0, "use_weights": True, "weight_negatives": True,
                 "exclude_self_negative": False, "task1_encoded": False}
SL_DEFAULTS = {"dim": 200, "sweeps": 10, "seed": 0, "init_std": 0.1, **LOSS_DEFAULTS}
DEFAULTS = {
    "ingest": {"min_word_count": 0, "min_item_count": 0, "max_neighbors": 250, "window": 1,
               "symmetrize": False},
    "train": {"model": "zsl_te", **SL_DEFAULTS, "negatives": 100, "batch_size": 128,
              "learning_rate": 0.06, "steps": 1000, "sampling": "uniform"},
    "retrieve": {"k": 100, "score": None, "bigrams": True},
    "eval": {"metric": "reconstruction", "k": 10, "score": None, "by_length": False},
    "ensemble-eval": {"k": 100, "head": None},
    "refresh": {"prune": False, "sub_seed": None, "sweeps": 2, "init_std": 0.1, **LOSS_DEFAULTS},
    "loss-audit": LOSS_DEFAULTS,
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestSurface:
    def test_parser_actions_are_pinned(self):
        surface = {
            name: [(" ".join(a.option_strings), a.dest, a.type,
                    None if a.choices is None else tuple(a.choices), a.const, a.default,
                    a.required, type(a).__name__.strip("_").removesuffix("Action"))
                   for a in sp._actions]
            for name, sp in _subparsers().items()}
        assert list(surface) == list(SURFACE)
        for name, actions in SURFACE.items():
            assert surface[name] == actions, name

    def test_every_numeric_option_has_a_range(self):
        unranged = [(name, a.dest) for name, sp in _subparsers().items() for a in sp._actions
                    if a.type in (int, float) and a.dest not in RANGES]
        assert not unranged

    def test_defaults_are_pinned(self):
        assert {name: sp.get_default("defaults") for name, sp in _subparsers().items()} == DEFAULTS

    def test_every_option_has_a_default(self):
        # _resolve reads only the keys of the defaults; an option without one would be ignored.
        undeclared = [(name, a.dest) for name, sp in _subparsers().items() for a in sp._actions
                      if not (a.required or a.dest in ("help", "config", "threads", "out")
                              or a.dest in (sp.get_default("inputs") or ())
                              or a.dest in sp.get_default("defaults"))]
        assert not undeclared

    @pytest.mark.parametrize("command", list(SURFACE))
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: zsr {command} ")

    def test_manifest_config_keys(self, workspace):
        corpus = ingest(workspace)
        model = train(workspace, corpus)
        assert refresh(workspace, model, corpus) == 0
        for command, out in (("ingest", corpus), ("train", model),
                             ("refresh", workspace / "model2")):
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert set(config) == CONFIG_KEYS[command], command


def _error_classes(cls=ZsrError):
    """``cls`` and every class below it."""
    return [cls, *(sub for child in cls.__subclasses__() for sub in _error_classes(child))]


def every_input(ws):
    """The inputs MANIFEST_INPUTS names, in ``ws``."""
    corpus = ingest(ws)
    train(ws, corpus)
    train(ws, corpus, "model2", extra=["--seed", "2"])
    grow(ws)
    (ws / "graph.tsv").write_text("a\tb\t2\n")
    (ws / "pairs.tsv").write_text("apple\ta\nfire\tc\n")
    (ws / "labeled.jsonl").write_text('{"query": ["apple"], "relevant": ["a"]}\n')
    (ws / "q.txt").write_text("apple\n")


# Per case, the arguments before --out, and the manifest's inputs: name -> path.
MANIFEST_INPUTS = {
    "ingest-graph": (["ingest", "--items", "items.jsonl", "--graph", "graph.tsv"],
                     {"items": "items.jsonl", "graph": "graph.tsv"}),
    "train-zsl_te": (["train", "--corpus", "corpus", "--dim", "2", "--sweeps", "1"],
                     {"corpus": "corpus"}),
    "train-smc": (["train", "--corpus", "corpus", "--model", "smc", "--pairs", "pairs.tsv",
                   "--dim", "2", "--steps", "2"], {"corpus": "corpus", "pairs": "pairs.tsv"}),
    "retrieve": (["retrieve", "--model", "model", "--corpus", "corpus", "--queries", "q.txt"],
                 {"model": "model", "corpus": "corpus", "queries": "q.txt"}),
    "eval-reconstruction": (["eval", "--model", "model", "--corpus", "corpus"],
                            {"model": "model", "corpus": "corpus"}),
    "eval-pooled": (["eval", "--model", "model", "--corpus", "corpus", "--metric", "pooled",
                     "--labeled", "labeled.jsonl"],
                    {"model": "model", "corpus": "corpus", "labeled": "labeled.jsonl"}),
    "eval-recall": (["eval", "--model", "model", "--corpus", "corpus", "--metric", "recall",
                     "--pairs", "pairs.tsv"],
                    {"model": "model", "corpus": "corpus", "pairs": "pairs.tsv"}),
    "ensemble-eval": (["ensemble-eval", "--primary", "model", "--secondary", "model2",
                       "--corpus", "corpus", "--pairs", "pairs.tsv"],
                      {"primary": "model", "secondary": "model2", "corpus": "corpus",
                       "pairs": "pairs.tsv"}),
    "refresh": (["refresh", "--model", "model", "--old-corpus", "corpus",
                 "--new-corpus", "corpus2"],
                {"model": "model", "old_corpus": "corpus", "new_corpus": "corpus2"}),
}


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
    def test_each_error_class_exits_with_its_code_and_one_line(self, tmp_path, capsys,
                                                               monkeypatch, cls):
        def fail(args):
            raise cls("msg")

        monkeypatch.setattr("zsretrieval.cli.cmd_ingest", fail)
        monkeypatch.chdir(tmp_path)
        code, label = ((1, "config error") if issubclass(cls, ConfigError)
                       else (3, "numeric failure") if issubclass(cls, NumericError)
                       else (2, "data error"))
        assert main(["ingest", "--items", "items.jsonl", "--out", "out"]) == code
        assert capsys.readouterr().err.splitlines() == [f"{label}: msg"]
        assert not Path("out").exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8 GiB", "out of memory: Unable to allocate 8 GiB"),
        ("", "out of memory: an allocation failed")], ids=["numpy", "empty"])
    def test_memory_error_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                message, line):
        def fail(args):
            raise MemoryError(message)

        monkeypatch.setattr("zsretrieval.cli.cmd_ingest", fail)
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--items", "items.jsonl", "--out", "out"]) == 4
        assert capsys.readouterr().err.splitlines() == [line]

    def test_a_dimension_past_memory_exits_4_with_one_line(self, workspace):
        # --dim 10**9 asks for GiBs per block; the child's address space is
        # capped at 2 GiB, so the allocation fails at once, whatever the host has.
        corpus = ingest(workspace)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        done = subprocess.run(
            [sys.executable, "-m", "zsretrieval.cli", "train", "--corpus", str(corpus),
             "--out", str(workspace / "model"), "--dim", str(10 ** 9)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 4, done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("out of memory: Unable to allocate ") and "1000000000" in line

    def test_a_library_warning_is_one_line(self, workspace):
        # A warning does not stop the run; zsr shows it as one line, not as
        # the message and the source line that raised it.
        corpus = ingest(workspace)
        done = subprocess.run(
            [sys.executable, "-m", "zsretrieval.cli", "train", "--corpus", str(corpus),
             "--out", str(workspace / "model"), "--dim", "2", "--sweeps", "1", "--init-std=0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [
            "warning: init_std=0 gives all-zero blocks; training may be degenerate"]

    @pytest.mark.parametrize("rescued", [True, False], ids=["rescued", "non-finite"])
    def test_a_singular_system_is_one_line(self, workspace, rescued):
        # With lambda 0 and more dimensions (8) than items (4), some W rows'
        # systems are singular: least squares solves each, with one warning
        # line; where its solution is not finite, the run fails in one line.
        corpus = ingest(workspace)
        patch = "" if rescued else "np.linalg.lstsq = lambda A, b, rcond: (b * np.nan,); "
        code = (f"import sys, numpy as np; {patch}from zsretrieval.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        done = subprocess.run(
            [sys.executable, "-c", code, "train", "--corpus", str(corpus),
             "--out", str(workspace / "model"), "--dim", "8", "--sweeps", "1", "--seed", "1",
             "--lambda", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
        lines = done.stderr.splitlines()
        if not rescued:
            assert done.returncode == 3, done.stderr
            [line] = lines
            assert line.startswith("numeric failure: non-finite update at block W, row ")
            return
        assert done.returncode == 0, done.stderr
        assert lines and all(line.startswith("warning: singular system at W[") and
                             line.endswith("]; solved by least squares") for line in lines)
        trace = (workspace / "model" / "loss_trace.csv").read_text().splitlines()
        column = trace[0].split(",").index("fallbacks_lstsq")
        assert int(trace[-1].split(",")[column]) == len(lines)

    @pytest.mark.parametrize("case", sorted(MANIFEST_INPUTS))
    def test_manifest_lists_each_input_given(self, workspace, monkeypatch, case):
        argv, want = MANIFEST_INPUTS[case]
        every_input(workspace)
        monkeypatch.chdir(workspace)
        assert main([*argv, "--out", "out"]) == 0
        inputs = json.loads(Path("out/manifest.json").read_text())["inputs"]
        assert {name: rec["path"] for name, rec in inputs.items()} == want
        assert all(len(bytes.fromhex(rec["sha256"])) == 32 for rec in inputs.values())

    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        assert main(["ingest", "--items", "x", "--out", "y", "--bogus"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# Per run, the arguments before the option under test, over every_input.
# Train runs once per trainer, since each refuses the other's options.
EXTREME_BASES = {
    "ingest": ["ingest", "--items", "items.jsonl", "--sequences", "sequences.tsv"],
    "train": MANIFEST_INPUTS["train-zsl_te"][0],
    "train-smc": MANIFEST_INPUTS["train-smc"][0],
    "retrieve": MANIFEST_INPUTS["retrieve"][0],
    "eval": MANIFEST_INPUTS["eval-recall"][0],
    "ensemble-eval": MANIFEST_INPUTS["ensemble-eval"][0],
    "refresh": MANIFEST_INPUTS["refresh"][0],
    "loss-audit": ["loss-audit", "--model", "model", "--corpus", "corpus"],
}
# Left out: a large --sweeps or --steps is a long run, not an error, and a
# large --threads could ask the BLAS library for that many threads.
EXTREME_SKIP = {"sweeps", "steps", "threads"}
# A float run that warns several times (refresh --lambda=0) prints several lines.
EXTREME_VALUES = {int: [str(10 ** k) for k in (3, 6, 9, 12, 20)],
                  float: ["inf", "nan", "1e308", "-1e308"]}
# The same through --config, as JSON values; an int beyond float range serves
# no float option.
EXTREME_CONFIG = {int: [10 ** k for k in (3, 6, 9, 12, 20)],
                  float: [float("inf"), float("nan"), 1e308, -1e308, 10 ** 400]}
# Run in one child process: each case through main(), its streams and any
# exception that escapes main() captured, and its warnings shown as a fresh
# process would show them.
EXTREME_RUNNER = """
import contextlib, io, json, sys, traceback, warnings
from zsretrieval.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_every_numeric_option_at_an_extreme_value_exits_with_at_most_one_line(workspace):
    every_input(workspace)
    parsers = _subparsers()
    options = [(base, action) for base in EXTREME_BASES.values()
               for action in parsers[base[0]]._actions
               if action.type in EXTREME_VALUES and action.dest not in EXTREME_SKIP]
    cases = [[*base, f"{action.option_strings[0]}={value}"]  # "=": "-1e308" is no flag
             for base, action in options for value in EXTREME_VALUES[action.type]]
    for base, action in options:  # by --config, the base's own flag for it left out
        flag = action.option_strings[0]
        at = base.index(flag) if flag in base else len(base)
        for value in EXTREME_CONFIG[action.type]:
            path = workspace / f"config{len(cases)}.json"
            path.write_text(json.dumps({action.dest: value}))
            cases.append([*base[:at], *base[at + 2:], "--config", path.name])
    cases = [argv if argv[0] == "loss-audit" else [*argv, "--out", f"out{i}"]
             for i, argv in enumerate(cases)]
    assert len(cases) > 100

    def cap_memory():  # acts on the child only; an allocation past it fails at once
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-c", EXTREME_RUNNER], input=json.dumps(cases),
                          capture_output=True, text=True, timeout=600, preexec_fn=cap_memory,
                          cwd=workspace,
                          env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    failed = [(argv, code, err) for argv, (code, err) in zip(cases, json.loads(done.stdout))
              if code not in (0, 1, 2, 3, 4) or len(err.splitlines()) > 1 or "Traceback" in err]
    assert not failed


def _rewrite(path, old, new):
    path.write_text(path.read_text().replace(old, new, 1))


def _set_max_neighbors(corpus, text=None):
    """Set corpus_meta.json's max_neighbors to the JSON ``text``; None deletes it."""
    meta = json.loads((corpus / "corpus_meta.json").read_text())
    del meta["max_neighbors"]
    entry = "" if text is None else f'"max_neighbors": {text}, '
    (corpus / "corpus_meta.json").write_text("{" + entry + json.dumps(meta)[1:])


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
    "graph-edge-repeated": (
        lambda ws, c: (ws / "graph.tsv").write_text("a\tb\t1\nb\ta\t1\na\tb\t2\n"),
        "ingest-graph"),
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
    "word-not-a-string": (
        lambda ws, c: _rewrite(ws / "items.jsonl", '"red"', "null"), "ingest"),
    "word-with-a-line-break": (
        lambda ws, c: _rewrite(ws / "items.jsonl", '"red"', '"r\\ned"'), "ingest"),
    "vocab-line-without-index": (
        lambda ws, c: _rewrite(c / "vocab.tsv", "\t0\n", "\n"), "train"),
    "items-line-with-a-stray-field": (
        lambda ws, c: _rewrite(c / "items.tsv", "\t0\n", "\t0\tx\n"), "train"),
    "items-index-not-an-integer": (
        lambda ws, c: _rewrite(c / "items.tsv", "\t0\n", "\tzero\n"), "train"),
    "adjacency-without-counts": (
        lambda ws, c: binio.write_int_lists(c / "adjacency.bin", ADJ_MAGIC, np.zeros(5), np.zeros(0)),
        "train"),
    "word-lists-payload-shorter-than-offsets": (
        lambda ws, c: binio.write_block(c / "words.bin", WORDS_MAGIC, 4, 1, bytes(32)), "train"),
    "word-lists-payload-shorter-than-values": (
        lambda ws, c: binio.write_block(c / "words.bin", WORDS_MAGIC, 4, 1,
                                        np.array([0, 1, 1, 1, 1], "<i8").tobytes()), "train"),
    "model-block-payload-of-another-size": (
        lambda ws, c: binio.write_block(ws / "model" / "W.bin", b"ZSRMAT_W", 99, 4, bytes(16)),
        "retrieve"),
    "model-meta-not-an-object": (
        lambda ws, c: (ws / "model" / "meta.json").write_text("[1]"), "retrieve"),
    "corpus-meta-without-max-neighbors": (
        lambda ws, c: _set_max_neighbors(c), "train"),
    # A number read from JSON is the type its field takes, and within float range.
    "corpus-meta-max-neighbors-beyond-float-range": (
        lambda ws, c: _set_max_neighbors(c, "1e999"), "train"),
    "corpus-meta-max-neighbors-a-fraction": (lambda ws, c: _set_max_neighbors(c, "2.7"), "train"),
    "corpus-meta-max-neighbors-a-boolean": (lambda ws, c: _set_max_neighbors(c, "true"), "train"),
    "corpus-meta-max-neighbors-a-string": (lambda ws, c: _set_max_neighbors(c, '"50"'), "train"),
    "corpus-meta-max-neighbors-zero": (lambda ws, c: _set_max_neighbors(c, "0"), "train"),
    "model-meta-objective-lam-beyond-float-range": (
        lambda ws, c: _edit_model_meta(ws / "model", "objective", {"lam": 10 ** 400}),
        "retrieve"),
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
    "neighbor-row-repeated": (
        lambda ws, c: binio.write_int_lists(c / "adjacency.bin", ADJ_MAGIC,
                                            np.array([0, 2, 2, 2, 2]), np.array([1, 1]),
                                            np.array([1, 1])), "train"),
    "neighbor-row-descending": (
        lambda ws, c: binio.write_int_lists(c / "adjacency.bin", ADJ_MAGIC,
                                            np.array([0, 1, 3, 3, 3]), np.array([1, 3, 0]),
                                            np.array([1, 1, 1])), "train"),
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
    "labeled-relevant-id-unknown": (
        lambda ws, c: (ws / "labeled.jsonl").write_text(
            '{"query": ["apple"], "relevant": ["a", "zz"]}\n'), "eval-pooled"),
    "labeled-relevant-id-a-number": (
        lambda ws, c: (ws / "labeled.jsonl").write_text(
            '{"query": ["apple"], "relevant": ["a", 3]}\n'), "eval-pooled"),
    "items-not-utf8": (
        lambda ws, c: (ws / "items.jsonl").write_bytes(
            ITEMS.encode() + b'{"id": "e", "words": ["caf\xe9"]}\n'), "ingest"),
    "queries-not-utf8": (lambda ws, c: (ws / "q.txt").write_bytes(b"apple\n\xff\n"), "retrieve"),
}


# The line some cases print, after the file's directory in the workspace.
MALFORMED_LINES = {
    "graph-edge-repeated": "graph.tsv:3: repeated edge 'a' -> 'b'",
    "vocab-line-without-index": "corpus/vocab.tsv:1: expected 2 tab-separated fields",
    "adjacency-without-counts": "corpus/adjacency.bin: missing counts",
    "neighbor-row-repeated": "corpus/adjacency.bin: row 0 is not strictly ascending",
    "neighbor-row-descending": "corpus/adjacency.bin: row 1 is not strictly ascending",
    "word-lists-payload-shorter-than-offsets": "corpus/words.bin: payload size mismatch",
    "word-lists-payload-shorter-than-values": "corpus/words.bin: payload size mismatch",
    "model-block-payload-of-another-size":
        "model/W.bin: payload size does not match 99x4 float32",
    "model-meta-not-an-object": "model/meta.json: not a JSON object",
    "corpus-meta-max-neighbors-beyond-float-range":
        "corpus/corpus_meta.json: 'max_neighbors' must be an integer >= 1",
    "corpus-meta-max-neighbors-a-string":
        "corpus/corpus_meta.json: 'max_neighbors' must be an integer >= 1",
    "model-meta-objective-lam-beyond-float-range": "model/meta.json: bad objective field 'lam'",
    "labeled-relevant-id-unknown": "labeled.jsonl:1: unknown item id 'zz'",
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
    if case in MALFORMED_LINES:
        assert err == f"data error: {workspace}/{MALFORMED_LINES[case]}\n"
