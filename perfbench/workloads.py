"""The benchmark workloads and the checks on their outputs.

``batch`` runs the train_te phase and the grow phase (both defined below)
in each iteration; ``serve`` is the read side.

Each workload is one client in a closed loop: a batch job, or one caller who
waits for each reply. Nothing in the package serves requests as they
arrive, so no workload is open-loop. A workload object is built on the
generated inputs and then driven by run.py:

``prepare``   untimed; persists whatever the timed loop starts from
``setup``     timed as part of set-up; loads that persisted state
``iteration`` one timed pass of the pipeline; returns its record
``check``     untimed; raises CheckFailure when an output is wrong
``probe``     [(state, corpus, TrainConfig, blocks)] for the traced row probe

CLI commands run in-process through ``cli.main``, so their stdout is
captured and their exit codes are checked.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import warnings
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import numpy as np

INGEST_FLAGS = ["--min-word-count", "2", "--max-neighbors", "50", "--threads", "1"]
INGEST_RE = re.compile(r"ingested (\d+) items, (\d+) words, (\d+) graph edges")
SKIPPED_RE = re.compile(r"\((\d+) skipped\)")
# A CD sweep never increases the loss; float32 storage of solved rows leaves
# only rounding-level slack, the same tolerance the acceptance suite allows.
LOSS_SLACK = 1e-9
SCORE_TOL = 1e-10
FULL_RANKINGS = 5


class CheckFailure(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def reference_topk(q: np.ndarray, V: np.ndarray, k: int, mode: str) -> tuple[list[int], list[float]]:
    """Independent exact top-k: per-row einsum scores, Python sort on
    (score desc, index asc), zero-norm rows skipped under cosine."""
    V64 = np.asarray(V, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    scores = np.einsum("ij,j->i", V64, q)
    cand = range(len(V64))
    if mode == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", V64, V64))
        nq = float(np.sqrt(q @ q))
        cand = [i for i in cand if norms[i] > 0.0]
        scores = scores / np.where(norms > 0.0, norms, 1.0) / nq
    ranked = sorted(cand, key=lambda i: (-scores[i], i))[:k]
    return ranked, [float(scores[i]) for i in ranked]


def check_ranking(items, scores, ref_items, ref_scores, what: str, score_tol: float) -> None:
    items, ref_items = list(items), list(ref_items)
    if items != ref_items:
        rank = next((r for r, (a, b) in enumerate(zip(items, ref_items)) if a != b),
                    min(len(items), len(ref_items)))
        raise CheckFailure(f"{what}: ranking differs from the numpy reference at rank {rank}")
    for s, r in zip(scores, ref_scores):
        check(abs(s - r) <= score_tol * max(1.0, abs(r)),
              f"{what}: score {s!r} differs from reference {r!r}")


def read_loss_trace(path: Path) -> list[float]:
    with open(path) as fh:
        return [float(row["loss_total"]) for row in csv.DictReader(fh)]


def check_monotone(losses: list[float], what: str) -> None:
    check(len(losses) >= 2, f"{what}: loss trace has {len(losses)} rows")
    for a, b in zip(losses, losses[1:]):
        check(b <= a + LOSS_SLACK * max(1.0, abs(a)),
              f"{what}: loss increased from {a!r} to {b!r}")


class Workload:
    """Shared plumbing: in-process CLI calls, failure counts, model checks."""

    def __init__(self, zsr: SimpleNamespace, inputs: Path, work: Path):
        self.zsr = zsr
        self.inputs = inputs
        self.work = work
        self.summary = json.loads((inputs / "gen_summary.json").read_text())

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def probe(self) -> list:
        return []

    def cli(self, rec: dict, *argv: str) -> tuple[float, str]:
        """Run one zsr command in-process; returns (seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = self.zsr.cli.main(list(argv))
            seconds = perf_counter() - t0
        rec["attempted"] += 1
        if rc != 0:
            rec["failed"] += 1
            rec.setdefault("cli_errors", []).append(f"zsr {argv[0]} exit {rc}: {err.getvalue().strip()}")
        return seconds, out.getvalue()

    @staticmethod
    def new_record() -> dict:
        return {"attempted": 0, "failed": 0}

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def check_cli(self, rec: dict) -> None:
        check(not rec.get("cli_errors"), "; ".join(rec.get("cli_errors", [])))

    def check_corpus(self, directory: Path, ingest_stdout: str, items: int) -> None:
        m = INGEST_RE.search(ingest_stdout)
        check(m is not None, f"unexpected ingest output {ingest_stdout!r}")
        n, words, nnz = (int(x) for x in m.groups())
        corpus = self.zsr.corpus.load_corpus(directory)
        check((corpus.n, corpus.m, corpus.graph.nnz) == (n, words, nnz),
              f"reloaded corpus {directory.name} has (n, m, nnz)="
              f"{(corpus.n, corpus.m, corpus.graph.nnz)}, ingest reported {(n, words, nnz)}")
        check(n == items, f"corpus {directory.name} has {n} items, {items} were generated")

    def check_model_roundtrip(self, model_dir: Path, corpus_dir: Path) -> None:
        """A model written by the program, reloaded and saved again, is
        bit-identical in memory and on disk."""
        store = self.zsr.store
        state = store.load_model(model_dir)
        copy_dir = self.fresh_dir(model_dir.name + "_resaved")
        store.save_model(state, copy_dir, self.zsr.corpus.load_corpus(corpus_dir))
        again = store.load_model(copy_dir)
        for block in ("W", "V", "U"):
            a, b = getattr(state, block), getattr(again, block)
            if a is None:
                check(b is None, f"{block} appeared after a reload")
                continue
            check(a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b),
                  f"{block} of {model_dir.name} changed across save and reload")
            check((model_dir / f"{block}.bin").read_bytes() == (copy_dir / f"{block}.bin").read_bytes(),
                  f"{block}.bin of {model_dir.name} is not byte-identical after resave")
        shutil.rmtree(copy_dir)

    def check_retrieve_results(self, results: Path, queries: list[str], model_dir: Path,
                               corpus_dir: Path, stride: int) -> None:
        """Every stride-th query of a zsr retrieve run against the reference."""
        state = self.zsr.store.load_model(model_dir)
        corpus = self.zsr.corpus.load_corpus(corpus_dir)
        blocks: dict[int, list[tuple[str, float]]] = {}
        qno = -1
        for line in results.read_text().splitlines():
            if line.startswith("# query "):
                qno = int(line.split("\t", 1)[0].split()[2])
                blocks[qno] = []
            elif line.startswith("# skipped"):
                blocks.pop(qno, None)
            elif line:
                _, item, score = line.split("\t")
                blocks[qno].append((item, float(score)))
        check(len(blocks) == len(queries),
              f"{results.name}: {len(blocks)} ranked queries, {len(queries)} asked")
        W64 = state.W.astype(np.float64)
        for qno in range(0, len(queries), stride):
            idx = self.zsr.corpus.words_to_indices(corpus, queries[qno].split())
            ref, ref_scores = reference_topk(W64[idx].mean(axis=0), state.V, 100, state.score_mode)
            got = blocks[qno]
            # results.tsv prints scores with 8 significant digits.
            check_ranking([corpus.item_index[i] for i, _ in got], [s for _, s in got],
                          ref, ref_scores, f"zsr retrieve query {qno}", 1e-7)


def _count_fallbacks(caught) -> int:
    return sum("singular system" in str(w.message) for w in caught)


def _tally_retrieve(rec: dict, stdout: str, queries: int) -> None:
    """Count a zsr retrieve run's queries, and its skipped ones as failed."""
    skipped = SKIPPED_RE.search(stdout)
    rec["queries"], rec["query_s"] = queries, rec["retrieve_s"]
    rec["attempted"] += queries
    rec["failed"] += int(skipped.group(1)) if skipped else queries


class TrainTE(Workload):
    """ingest -> train zsl_te (d=64, 3 sweeps) -> retrieve (k=100) -> eval x2.

    Chosen because it is bound by training (about 70% of an iteration),
    and runs the paper's headline model kind through the Gauss-Seidel W pass
    on encoded contexts; ingest and top-k are a small share here.
    """

    def iteration(self, i: int) -> dict:
        rec = self.new_record()
        inp = self.inputs
        corpus, model = self.fresh_dir("corpus"), self.fresh_dir("model")
        run_dir, rec_dir, tr_dir = (self.fresh_dir(n) for n in ("run", "eval_recon", "eval_recall"))
        queries = (inp / "queries.txt").read_text().splitlines()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0, c0 = perf_counter(), process_time()
            rec["ingest_s"], ingest_out = self.cli(
                rec, "ingest", "--items", str(inp / "items.jsonl"),
                "--sequences", str(inp / "sequences.tsv"), "--out", str(corpus), *INGEST_FLAGS)
            rec["train_s"], _ = self.cli(
                rec, "train", "--corpus", str(corpus), "--out", str(model), "--model", "zsl_te",
                "--dim", "64", "--sweeps", "3", "--threads", "1")
            rec["retrieve_s"], ret_out = self.cli(
                rec, "retrieve", "--model", str(model), "--corpus", str(corpus),
                "--queries", str(inp / "queries.txt"), "--out", str(run_dir), "--k", "100",
                "--threads", "1")
            recon_s, _ = self.cli(rec, "eval", "--model", str(model), "--corpus", str(corpus),
                                  "--out", str(rec_dir), "--metric", "reconstruction",
                                  "--threads", "1")
            recall_s, _ = self.cli(rec, "eval", "--model", str(model), "--corpus", str(corpus),
                                   "--out", str(tr_dir), "--metric", "recall",
                                   "--pairs", str(inp / "pairs.tsv"), "--k", "10",
                                   "--threads", "1")
            rec["pipeline_s"] = perf_counter() - t0
            rec["pipeline_cpu_s"] = process_time() - c0
        rec["solve_fallbacks"] = _count_fallbacks(caught)
        rec["eval_s"] = recon_s + recall_s
        self.check_cli(rec)
        _tally_retrieve(rec, ret_out, len(queries))
        recon = json.loads((rec_dir / "report.json").read_text())
        transfer = json.loads((tr_dir / "report.json").read_text())
        rec["recon_recall"] = recon["mean_recall"]
        rec["transfer_recall_at_10"] = transfer["mean_recall"]
        rec["attempted"] += transfer["scored"] + transfer["skipped"]
        rec["failed"] += transfer["skipped"]
        rec["eval_skipped"] = transfer["skipped"]
        rec["final_loss"] = read_loss_trace(model / "loss_trace.csv")[-1]
        rec["_ingest_out"] = ingest_out
        return rec

    def check(self, i: int, rec: dict) -> None:
        check_monotone(read_loss_trace(self.work / "model" / "loss_trace.csv"), "zsr train")
        if i:
            return
        self.check_corpus(self.work / "corpus", rec["_ingest_out"], self.summary["items"])
        self.check_model_roundtrip(self.work / "model", self.work / "corpus")
        queries = (self.inputs / "queries.txt").read_text().splitlines()
        self.check_retrieve_results(self.work / "run" / "results.tsv", queries,
                                    self.work / "model", self.work / "corpus", stride=40)

    def probe(self) -> list:
        zsr = self.zsr
        state = zsr.store.load_model(self.work / "model")
        corpus = zsr.corpus.load_corpus(self.work / "corpus")
        return [(state, corpus, zsr.store.TrainConfig(kind="zsl_te", d=64, sweeps=3), ("V", "W"))]


class Grow(Workload):
    """ingest old -> train zsl_me (1 sweep) -> ingest grown -> refresh (2 sweeps)
    -> retrieve on the refreshed model -> reconstruction eval.

    Chosen as the write side of the same layers: graph builds from many
    transitions and corpus and model writes are a large share, and it runs
    the U pass, the per-word W pass and warm_start_extend, which train_te
    never touches. A change that speeds up loads by slowing ingest or saves
    shows here.
    """

    def iteration(self, i: int) -> dict:
        rec = self.new_record()
        inp = self.inputs
        old_c, new_c = self.fresh_dir("corpus_old"), self.fresh_dir("corpus_new")
        old_m, new_m = self.fresh_dir("model_old"), self.fresh_dir("model_new")
        run_dir, ev_dir = self.fresh_dir("run"), self.fresh_dir("eval_recon")
        queries = (inp / "queries.txt").read_text().splitlines()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0, c0 = perf_counter(), process_time()
            ing1, out1 = self.cli(rec, "ingest", "--items", str(inp / "items_old.jsonl"),
                                  "--sequences", str(inp / "sequences_old.tsv"),
                                  "--out", str(old_c), *INGEST_FLAGS)
            rec["train_s"], _ = self.cli(
                rec, "train", "--corpus", str(old_c), "--out", str(old_m), "--model", "zsl_me",
                "--dim", "64", "--sweeps", "1", "--threads", "1")
            ing2, out2 = self.cli(rec, "ingest", "--items", str(inp / "items_new.jsonl"),
                                  "--sequences", str(inp / "sequences_new.tsv"),
                                  "--out", str(new_c), *INGEST_FLAGS)
            rec["refresh_s"], _ = self.cli(
                rec, "refresh", "--model", str(old_m), "--old-corpus", str(old_c),
                "--new-corpus", str(new_c), "--out", str(new_m), "--sweeps", "2",
                "--threads", "1")
            rec["retrieve_s"], ret_out = self.cli(
                rec, "retrieve", "--model", str(new_m), "--corpus", str(new_c),
                "--queries", str(inp / "queries.txt"), "--out", str(run_dir), "--k", "100",
                "--threads", "1")
            rec["eval_s"], _ = self.cli(rec, "eval", "--model", str(new_m), "--corpus", str(new_c),
                                        "--out", str(ev_dir), "--metric", "reconstruction",
                                        "--threads", "1")
            rec["pipeline_s"] = perf_counter() - t0
            rec["pipeline_cpu_s"] = process_time() - c0
        rec["solve_fallbacks"] = _count_fallbacks(caught)
        rec["ingest_s"] = ing1 + ing2
        self.check_cli(rec)
        _tally_retrieve(rec, ret_out, len(queries))
        rec["recon_recall"] = json.loads((ev_dir / "report.json").read_text())["mean_recall"]
        rec["final_loss"] = read_loss_trace(new_m / "loss_trace.csv")[-1]
        rec["_ingest_out"] = (out1, out2)
        return rec

    def check(self, i: int, rec: dict) -> None:
        w = self.work
        check_monotone(read_loss_trace(w / "model_old" / "loss_trace.csv"), "zsr train")
        check_monotone(read_loss_trace(w / "model_new" / "loss_trace.csv"), "zsr refresh")
        if i:
            return
        out1, out2 = rec["_ingest_out"]
        self.check_corpus(w / "corpus_old", out1, self.summary["items_old"])
        self.check_corpus(w / "corpus_new", out2, self.summary["items_new"])
        state = self.zsr.store.load_model(w / "model_new")
        grown = self.zsr.corpus.load_corpus(w / "corpus_new")
        check((state.n, state.m) == (grown.n, grown.m),
              f"refreshed model is {state.n}x{state.m}, grown corpus is {grown.n}x{grown.m}")
        self.check_model_roundtrip(w / "model_new", w / "corpus_new")
        queries = (self.inputs / "queries.txt").read_text().splitlines()
        self.check_retrieve_results(w / "run" / "results.tsv", queries,
                                    w / "model_new", w / "corpus_new", stride=10)

    def probe(self) -> list:
        zsr = self.zsr
        state = zsr.store.load_model(self.work / "model_new")
        corpus = zsr.corpus.load_corpus(self.work / "corpus_new")
        return [(state, corpus, zsr.store.TrainConfig(kind="zsl_me", d=64, sweeps=2), ("U",))]


class Serve(Workload):
    """Persisted model and corpus -> closed loop of text queries
    (words_to_indices -> encode_bow -> retrieve_topk, cosine, k=100) ->
    reconstruction, recall@10, pooled and ensemble recall against a second,
    dot-scored model.

    Chosen because it does no training and is bound by the top-k scan,
    whose cost per query scales with n*d. The planted duplicate and
    zero-norm rows make any drift in the (score desc, index asc) tie rule or
    in cosine skipping fail the checks.
    """

    K = 100
    CHECK_STRIDE = 10

    def prepare(self) -> None:
        inp = self.inputs
        rec = self.new_record()
        _, out = self.cli(rec, "ingest", "--items", str(inp / "items.jsonl"),
                          "--sequences", str(inp / "sequences.tsv"),
                          "--out", str(self.work / "corpus"), *INGEST_FLAGS)
        self.check_cli(rec)
        self.check_corpus(self.work / "corpus", out, self.summary["items"])
        corpus = self.zsr.corpus.load_corpus(self.work / "corpus")
        table = np.load(inp / "serve_model.npz")
        row = {t: k for k, t in enumerate(table["tokens"].tolist())}
        words = [row[w] for w in corpus.vocab]
        check(table["item_ids"].tolist() == corpus.item_ids, "item order changed at ingest")
        store = self.zsr.store
        self.expected = {}
        for name, kind, mode, W, V in (("model", "zsl_te", "cosine", table["W"], table["V"]),
                                       ("model_dot", "smc", "dot", table["W2"], table["V2"])):
            state = store.ModelState(kind, V.shape[1], np.ascontiguousarray(W[words]),
                                     V.copy(), None, 0, 0, mode)
            store.save_model(state, self.work / name, corpus)
            self.expected[name] = state
        self.zero_rows = table["zero_rows"]
        self.dup_rows = table["dup_rows"]
        self.queries = [line.split() for line in
                        (inp / "queries.txt").read_text().splitlines()]
        self.pairs = []
        for line in (inp / "pairs.tsv").read_text().splitlines():
            text, item = line.split("\t")
            self.pairs.append((self.zsr.corpus.words_to_indices(corpus, text.split()),
                               corpus.item_index[item]))
        self.labeled = []
        for line in (inp / "labeled_sets.jsonl").read_text().splitlines():
            entry = json.loads(line)
            self.labeled.append((self.zsr.corpus.words_to_indices(corpus, entry["query"]),
                                 {corpus.item_index[i] for i in entry["relevant"]}))

    def setup(self) -> None:
        zsr = self.zsr
        self.state = zsr.store.load_model(self.work / "model")
        self.state_dot = zsr.store.load_model(self.work / "model_dot")
        self.corpus = zsr.corpus.load_corpus(self.work / "corpus")

    def iteration(self, i: int) -> dict:
        zsr = self.zsr
        rec = self.new_record()
        corpus, state = self.corpus, self.state
        pairs, labeled = self.pairs, zsr.evaluation.LabeledSet(self.labeled)
        words_to_indices = zsr.corpus.words_to_indices
        encode_bow, retrieve_topk = zsr.encoder.encode_bow, zsr.retrieval.retrieve_topk
        errors = (zsr.errors.EncodeError, zsr.errors.ScoreError)
        latencies, sampled = [], []
        t0, c0 = perf_counter(), process_time()
        for qno, tokens in enumerate(self.queries):
            t = perf_counter()
            try:
                q = encode_bow(words_to_indices(corpus, tokens), state.W)
                ranked = retrieve_topk(q, state.V, self.K, "cosine")
            except errors:
                rec["failed"] += 1
                ranked = None
            latencies.append(perf_counter() - t)
            if qno % self.CHECK_STRIDE == 0:
                sampled.append((qno, ranked))
        t1 = perf_counter()
        ev = zsr.evaluation
        recon = ev.reconstruction_recall(state, corpus.graph, "cosine")
        recall = ev.recall_at_k(state, pairs, 10, "cosine")
        pooled = ev.pooled_recall(state, labeled, "cosine")
        ens = ev.ensemble_recall_at_k(state, self.state_dot, pairs, self.K)
        t2, c2 = perf_counter(), process_time()
        rec.update(pipeline_s=t2 - t0, pipeline_cpu_s=c2 - c0, eval_s=t2 - t1,
                   query_s=t1 - t0, queries=len(self.queries), latencies=latencies,
                   recon_recall=recon.mean, recall_at_10=recall.mean,
                   pooled_recall=pooled.mean, ensemble_recall=ens.mean,
                   solve_fallbacks=0, _sampled=sampled)
        rec["attempted"] += len(self.queries) + 2 * len(pairs) + len(labeled.queries)
        rec["eval_skipped"] = recall.skipped + pooled.skipped + ens.skipped
        rec["failed"] += rec["eval_skipped"]
        return rec

    def check(self, i: int, rec: dict) -> None:
        if i:
            return
        zsr = self.zsr
        for name, expected in self.expected.items():
            loaded = zsr.store.load_model(self.work / name)
            for block in ("W", "V"):
                a, b = getattr(expected, block), getattr(loaded, block)
                check(a.dtype == b.dtype and np.array_equal(a, b),
                      f"{name}: {block} changed across save and reload")
            check(loaded.score_mode == expected.score_mode, f"{name}: score mode changed")
            self.check_model_roundtrip(self.work / name, self.work / "corpus")
        zero = set(self.zero_rows.tolist())
        dups = set(self.dup_rows.tolist())
        ties_seen = 0
        W64 = self.state.W.astype(np.float64)
        W64_dot = self.state_dot.W.astype(np.float64)
        for qno, ranked in rec["_sampled"]:
            idx = zsr.corpus.words_to_indices(self.corpus, self.queries[qno])
            ref, ref_scores = reference_topk(W64[idx].mean(axis=0), self.state.V, self.K, "cosine")
            check(ranked is not None, f"query {qno} raised")
            check(not zero & set(ranked.items.tolist()), f"query {qno} returned a zero-norm row")
            check_ranking(ranked.items.tolist(), ranked.scores.tolist(), ref, ref_scores,
                          f"serve query {qno} (cosine)", SCORE_TOL)
            ties_seen += len(dups & set(ranked.items.tolist()))
            q = zsr.encoder.encode_bow(idx, self.state_dot.W)
            got = zsr.retrieval.retrieve_topk(q, self.state_dot.V, self.K, "dot")
            ref, ref_scores = reference_topk(W64_dot[idx].mean(axis=0), self.state_dot.V,
                                             self.K, "dot")
            check_ranking(got.items.tolist(), got.scores.tolist(), ref, ref_scores,
                          f"serve query {qno} (dot)", SCORE_TOL)
        check(ties_seen > 0, "no planted tie reached a checked ranking")
        # A full ranking reaches the zero-norm rows, which a top-100 never does.
        for qno, _ in rec["_sampled"][:FULL_RANKINGS]:
            idx = zsr.corpus.words_to_indices(self.corpus, self.queries[qno])
            got = zsr.retrieval.retrieve_topk(zsr.encoder.encode_bow(idx, self.state.W),
                                              self.state.V, self.state.n, "cosine")
            ref, ref_scores = reference_topk(W64[idx].mean(axis=0), self.state.V,
                                             self.state.n, "cosine")
            check_ranking(got.items.tolist(), got.scores.tolist(), ref, ref_scores,
                          f"serve query {qno} (cosine, full ranking)", SCORE_TOL)


class Batch:
    """The batch side of the package: the train_te phase, then the grow
    phase, each on its own inputs and output directories, as one iteration.

    The two phases were first separate workloads. On a shared host whose
    speed drifts for minutes at a time, fewer and longer runs keep the
    spread of a set of runs lower, so they share one workload and its run
    time; each phase's stage times are still printed.
    """

    def __init__(self, zsr: SimpleNamespace, inputs: Path, work: Path):
        self.phases = (TrainTE(zsr, inputs / "train_te", work / "train_te"),
                       Grow(zsr, inputs / "grow", work / "grow"))

    @property
    def zsr(self) -> SimpleNamespace:
        return self.phases[0].zsr

    @zsr.setter
    def zsr(self, zsr: SimpleNamespace) -> None:
        for phase in self.phases:
            phase.zsr = zsr

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def iteration(self, i: int) -> dict:
        te = self.phases[0].iteration(i)
        gr = self.phases[1].iteration(i)
        summed = ("attempted", "failed", "pipeline_s", "pipeline_cpu_s", "eval_s", "queries",
                  "query_s",
                  "ingest_s", "train_s", "solve_fallbacks", "eval_skipped")
        rec = {k: te.get(k, 0) + gr.get(k, 0) for k in summed}
        rec.update(refresh_s=gr["refresh_s"], final_loss=te["final_loss"],
                   transfer_recall_at_10=te["transfer_recall_at_10"],
                   recon_recall=(te["recon_recall"] + gr["recon_recall"]) / 2,
                   recon_recall_zsl_te=te["recon_recall"],
                   recon_recall_refreshed=gr["recon_recall"], _phases=(te, gr))
        return rec

    def check(self, i: int, rec: dict) -> None:
        for phase, phase_rec in zip(self.phases, rec["_phases"]):
            phase.check(i, phase_rec)

    def probe(self) -> list:
        return [target for phase in self.phases for target in phase.probe()]


def serve(zsr: SimpleNamespace, inputs: Path, work: Path) -> Serve:
    return Serve(zsr, inputs / "serve", work)


WORKLOADS = {"batch": Batch, "serve": serve}
