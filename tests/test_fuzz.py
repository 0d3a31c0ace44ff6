"""Seeded mutation fuzzing of every corpus and model artifact under the CLI.

Each case damages one file of a persisted corpus or model (a bit flip, a
truncation, a duplicated run of bytes or a run of zeroed bytes) and runs one
command that reads it. The command must exit 0, 1, 2 or 3 with at most one
line on stderr and no traceback; damage to a binary block never exits 0.
"""
import warnings

import numpy as np
import pytest

from tests.test_cli import ITEMS, SEQUENCES
from zsretrieval.cli import main

MUTATIONS = 400
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
        capsys.readouterr()
        label = f"case {case}: {command} with {path.parent.name}/{path.name} damaged"
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(commands[command])
        except Exception as exc:  # the command line would print a traceback
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err.strip().splitlines() + [str(w.message) for w in caught]
        assert rc in (0, 1, 2, 3), label
        assert len(err) <= 1, f"{label}: {err}"
        if path.suffix == ".bin" and damaged != original:
            assert rc != 0, label
        exits[rc] = exits.get(rc, 0) + 1
    assert exits.get(2, 0) > MUTATIONS // 2, exits  # most damage is caught as bad data
