"""Seeded mutation fuzzing of the ingest inputs, the smc training pairs and
every corpus and model artifact under the CLI.

Each case damages one file (a bit flip, a truncation, a duplicated run of
bytes or a run of zeroed bytes; a text input may instead get a text edit)
and runs one command that reads it. The command must exit 0, 1, 2 or 3 with
at most one line on stderr and no traceback; damage to a binary block never
exits 0. The smc runs also sweep the sampling options over their edges.
"""
import warnings

import numpy as np
import pytest

from tests.test_cli import ITEMS, SEQUENCES
from zsretrieval.cli import main

MUTATIONS = 400
INPUT_MUTATIONS = 100
SEED = 20201


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    if not data:
        return b"\x00"
    i = int(rng.integers(len(data)))
    j = int(rng.integers(i, min(len(data), i + 16) + 1))
    kind = rng.integers(4)
    if kind == 0:  # flip one bit
        return data[:i] + bytes([data[i] ^ (1 << int(rng.integers(8)))]) + data[i + 1:]
    if kind == 1:  # truncate
        return data[:i]
    if kind == 2:  # duplicate a run
        return data[:j] + data[i:j] + data[j:]
    return data[:i] + bytes(j - i) + data[j:]  # zero a run


# Text edits that keep an ingest input decodable but break its rules.
TEXT_EDITS = ("\n", "\t", ",", ",,", "zzz", '"', "{", "}", "[", "]", ":", "\\", "\u00e9",
              '"id"', '"words"', "null", "1")


def _edit(data: bytes, rng: np.random.Generator) -> bytes:
    i = int(rng.integers(len(data) + 1))
    j = int(rng.integers(i, min(len(data), i + 4) + 1))
    return data[:i] + TEXT_EDITS[int(rng.integers(len(TEXT_EDITS)))].encode() + data[j:]


def _run(argv, capsys, label):
    """Exit code and stderr lines (and warnings) of one command."""
    capsys.readouterr()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
    except Exception as exc:  # the command line would print a traceback
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err.strip().splitlines() + [str(w.message) for w in caught]
    assert rc in (0, 1, 2, 3), label
    assert len(err) <= 1, f"{label}: {err}"
    return rc


def test_mutated_ingest_inputs_never_crash(tmp_path, capsys):
    rng = np.random.default_rng(SEED + 1)
    inputs = {"items.jsonl": ITEMS.encode(), "sequences.tsv": SEQUENCES.encode()}
    exits = {}
    for case in range(INPUT_MUTATIONS):
        name = sorted(inputs)[case % 2]
        damage = _mutate if rng.random() < 0.5 else _edit
        for file, data in inputs.items():
            (tmp_path / file).write_bytes(damage(data, rng) if file == name else data)
        argv = ["ingest", "--items", str(tmp_path / "items.jsonl"),
                "--sequences", str(tmp_path / "sequences.tsv"), "--out", str(tmp_path / "out")]
        if case % 3 == 1:  # drop rarely consumed items and widen the window
            argv += ["--min-item-count", "3", "--window", "2", "--symmetrize"]
        rc = _run(argv, capsys, f"case {case}: ingest with {name} {damage.__name__}")
        exits[rc] = exits.get(rc, 0) + 1
    assert exits.get(0, 0) > 0 and exits.get(2, 0) > 0, exits


def test_smc_options_and_mutated_pairs_never_crash(tmp_path, capsys):
    # One-item and four-item corpora; negatives 0, 1, n - 1 and n + 5; a
    # batch of one and one larger than the pair count; intact and damaged
    # pairs.tsv files.
    rng = np.random.default_rng(SEED + 2)
    one_item = '{"id": "a", "words": ["red", "apple"]}\n'
    cases = [(one_item, "red apple\ta\napple\ta\n"),
             (ITEMS, "red apple\ta\nfire\tc\napple pie\tb\nfast engine\td\nred\tc\n")]
    exits = {}
    for k, (items, pairs) in enumerate(cases):
        (tmp_path / "items.jsonl").write_text(items)
        corpus = str(tmp_path / f"corpus{k}")
        assert main(["ingest", "--items", str(tmp_path / "items.jsonl"), "--out", corpus]) == 0
        n, n_pairs = items.count("\n"), pairs.count("\n")
        for sampling in ("uniform", "log_uniform"):
            for negatives in (0, 1, n - 1, n + 5):
                for batch in (1, n_pairs + 3):
                    for damage in (None, _mutate, _edit):
                        data = pairs.encode() if damage is None else damage(pairs.encode(), rng)
                        (tmp_path / "pairs.tsv").write_bytes(data)
                        label = (f"smc n={n} {sampling} negatives={negatives} batch={batch} "
                                 f"pairs {damage.__name__ if damage else 'intact'}")
                        rc = _run(["train", "--corpus", corpus, "--out", str(tmp_path / "smc"),
                                   "--model", "smc", "--pairs", str(tmp_path / "pairs.tsv"),
                                   "--dim", "3", "--steps", "4", "--sampling", sampling,
                                   "--negatives", str(negatives), "--batch-size", str(batch)],
                                  capsys, label)
                        if damage is None:
                            assert rc == 0, label
                        exits[rc] = exits.get(rc, 0) + 1
    assert exits.get(0, 0) > 0 and exits.get(2, 0) > 0, exits


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    ws = tmp_path_factory.mktemp("fuzz")
    (ws / "items.jsonl").write_text(ITEMS)
    (ws / "sequences.tsv").write_text(SEQUENCES)
    (ws / "items2.jsonl").write_text(ITEMS + '{"id": "e", "words": ["blue", "apple"]}\n')
    (ws / "sequences2.tsv").write_text(SEQUENCES + "u4\te,a,e\n")
    (ws / "q.txt").write_text("red apple\nfire\n")
    for items, seqs, out in (("items.jsonl", "sequences.tsv", "corpus"),
                             ("items2.jsonl", "sequences2.tsv", "corpus2")):
        assert main(["ingest", "--items", str(ws / items), "--sequences", str(ws / seqs),
                     "--out", str(ws / out)]) == 0
    for kind in ("zsl_te", "zsl_me"):
        assert main(["train", "--corpus", str(ws / "corpus"), "--out", str(ws / kind),
                     "--model", kind, "--dim", "3", "--sweeps", "1"]) == 0
    return ws


def _commands(ws, model):
    corpus, out = str(ws / "corpus"), str(ws / "out")
    return {
        "retrieve": ["retrieve", "--model", model, "--corpus", corpus,
                     "--queries", str(ws / "q.txt"), "--out", out],
        "eval": ["eval", "--model", model, "--corpus", corpus, "--out", out],
        "refresh": ["refresh", "--model", model, "--old-corpus", corpus,
                    "--new-corpus", str(ws / "corpus2"), "--out", out, "--sweeps", "1"],
        "loss-audit": ["loss-audit", "--model", model, "--corpus", corpus],
    }


def test_mutated_artifacts_never_crash(artifacts, capsys):
    ws = artifacts
    rng = np.random.default_rng(SEED)
    targets = sorted(p for d in ("corpus", "corpus2", "zsl_te", "zsl_me")
                     for p in (ws / d).iterdir())
    exits = {}
    for case in range(MUTATIONS):
        path = targets[int(rng.integers(len(targets)))]
        model = str(path.parent if path.parent.name.startswith("zsl")
                    else ws / ("zsl_me" if case % 2 else "zsl_te"))
        commands = _commands(ws, model)
        command = ("refresh" if path.parent.name == "corpus2"
                   else list(commands)[int(rng.integers(len(commands)))])
        original = path.read_bytes()
        damaged = _mutate(original, rng)
        path.write_bytes(damaged)
        label = f"case {case}: {command} with {path.parent.name}/{path.name} damaged"
        try:
            rc = _run(commands[command], capsys, label)
        finally:
            path.write_bytes(original)
        if path.suffix == ".bin" and damaged != original:
            assert rc != 0, label
        exits[rc] = exits.get(rc, 0) + 1
    assert exits.get(2, 0) > MUTATIONS // 2, exits  # most damage is caught as bad data
