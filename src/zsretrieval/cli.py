"""Command-line entry point for batch jobs.

Subcommands: ingest, train, retrieve, eval, ensemble-eval, refresh,
loss-audit. Every run writes a manifest.json next to its artifacts with the
resolved configuration, sha256 digests of the inputs, and the tool version.
Option precedence is flags > --config JSON file > built-in defaults; refresh
and loss-audit default to the objective stored with the model.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

import numpy as np

from . import __version__, binio
from .corpus import (
    Corpus,
    ingest_corpus,
    load_corpus,
    open_text,
    read_graph_tsv,
    read_items_jsonl,
    read_jsonl_rows,
    read_sequences_tsv,
    read_tsv_rows,
    save_corpus,
    words_to_indices,
)
from .corpus import build_corpus as _build_corpus
from .errors import (
    ConfigError,
    EncodeError,
    IngestError,
    ModelIOError,
    NumericError,
    RefreshError,
    ScoreError,
    SizeGuardError,
)
from .evaluation import (
    LabeledSet,
    ensemble_recall_at_k,
    pooled_recall,
    recall_at_k,
    reconstruction_recall,
)
from .retrieval import BLOCK_ROWS, search
from .sl_trainer import SWEEP_STATS, sl_loss_bruteforce, sl_loss_efficient, train_sl_model
from .smc import SMCConfig, train_smc
from .store import (
    SMC,
    ModelState,
    TrainConfig,
    load_model,
    save_model,
    warm_start_extend,
)

TRACE_FIELDS = ["sweep", "loss_total", "loss_task1", "loss_task2", "loss_reg", "seconds",
                *SWEEP_STATS]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control the exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Config resolution and manifest plumbing


def _digest_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest(path: str | Path) -> str:
    path = Path(path)
    if path.is_dir():
        h = hashlib.sha256()
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode())
            h.update(bytes.fromhex(_digest_file(f)))
        return h.hexdigest()
    return _digest_file(path)


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults; only keys in ``defaults`` participate."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        try:
            overlay = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise IngestError(f"--config {args.config}: {exc}") from exc
        if not isinstance(overlay, dict):
            raise ConfigError("--config must contain a JSON object")
        for key, value in overlay.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


@functools.cache  # get_type_hints evaluates every annotation
def _options(cls) -> tuple[tuple[str, type, dataclasses.Field], ...]:
    """(config key, type, field) per field of a config dataclass; see ``TrainConfig``."""
    hints = get_type_hints(cls)
    return tuple((f.metadata.get("key", f.name), hints[f.name], f) for f in dataclasses.fields(cls))


def _defaults(cls) -> dict:
    return {key: f.default for key, _, f in _options(cls)}


def _build(cls, cfg: dict):
    """A ``cls`` from resolved config keys, cast to the field types (a str as given)."""
    kwargs = {}
    for key, want, f in _options(cls):
        try:
            kwargs[f.name] = cfg[key] if want is str else want(cfg[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return cls(**kwargs)


def _write_manifest(out_dir: Path, args: argparse.Namespace, resolved: dict,
                    inputs: dict[str, str | Path]) -> None:
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": resolved,
        "threads": {"requested": args.threads,
                    "applied": args.threads_applied},
        "inputs": {name: {"path": str(p), "sha256": _digest(p)}
                   for name, p in inputs.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    binio.atomic_write_bytes(out_dir / "manifest.json",
                             json.dumps(manifest, indent=2, sort_keys=True).encode())


def _limit_threads(threads: int | None):
    """A threadpoolctl limiter for ``--threads``; None when there is no
    request or threadpoolctl is not installed."""
    if threads is None:
        return None
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    return threadpool_limits(limits=threads)


def _read_pairs_tsv(path: str | Path,
                    corpus: Corpus) -> tuple[list[tuple[list[int], int]], list[int]]:
    """pairs.tsv: query text TAB item_id; queries tokenized like build_corpus.

    Returns the (word indices, item) pairs and each query's token count.
    """
    pairs, token_counts = [], []
    for lineno, (text, item_id) in read_tsv_rows(path, 2):
        if item_id not in corpus.item_index:
            raise IngestError(f"{path}:{lineno}: unknown item id {item_id!r}")
        tokens = text.split()
        pairs.append((words_to_indices(corpus, tokens), corpus.item_index[item_id]))
        token_counts.append(len(tokens))
    return pairs, token_counts


def _read_labeled_sets(path: str | Path, corpus: Corpus) -> dict[str, LabeledSet]:
    """labeled_sets.jsonl: {"query": [tokens], "relevant": [ids], "set": name?}."""
    sets: dict[str, list] = {}
    for lineno, rec, (tokens, relevant) in read_jsonl_rows(path, "labeled", "query", "relevant"):
        for key, value in (("query", tokens), ("relevant", relevant)):
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise IngestError(f"{path}:{lineno}: {key!r} must be a list of strings")
        if not relevant:
            raise IngestError(f"{path}:{lineno}: 'relevant' is empty")
        name = rec.get("set", "default")
        if not isinstance(name, str):
            raise IngestError(f"{path}:{lineno}: 'set' must be a string")
        rel_idx = set()
        for item_id in relevant:
            if item_id not in corpus.item_index:
                raise IngestError(f"{path}:{lineno}: unknown item id {item_id!r}")
            rel_idx.add(corpus.item_index[item_id])
        sets.setdefault(name, []).append((words_to_indices(corpus, tokens), rel_idx))
    return {name: LabeledSet(queries) for name, queries in sets.items()}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    defaults = {"min_word_count": 0, "min_item_count": 0, "max_neighbors": 250,
                "window": 1, "symmetrize": False}
    cfg = _resolve(args, defaults)
    items = read_items_jsonl(args.items)
    inputs: dict[str, str | Path] = {"items": args.items}
    if args.sequences:
        sequences = read_sequences_tsv(args.sequences)
        corpus = ingest_corpus(items, sequences, cfg["min_item_count"],
                               cfg["min_word_count"], cfg["max_neighbors"],
                               cfg["window"], cfg["symmetrize"])
        inputs["sequences"] = args.sequences
    else:
        corpus = _build_corpus(items, 0, cfg["min_word_count"])
        if args.graph:
            corpus.graph = read_graph_tsv(args.graph, corpus, cfg["max_neighbors"])
            inputs["graph"] = args.graph
    out = Path(args.out)
    save_corpus(corpus, out)
    _write_manifest(out, args, cfg, inputs)
    print(f"ingested {corpus.n} items, {corpus.m} words, "
          f"{corpus.graph.nnz} graph edges -> {out}")
    return 0


def _resolve_for_model(args: argparse.Namespace, state: ModelState,
                       **extra) -> tuple[dict, TrainConfig]:
    """``_resolve`` of the TrainConfig keys and ``extra``, with the model's
    stored objective between the defaults and --config/flags: an explicit
    value that differs from a stored one wins, with one notice line on
    stderr. The resolved keys and the TrainConfig take the model's kind and d."""
    stored = state.objective or {}
    cfg = _resolve(args, {**_defaults(TrainConfig), **extra, **stored})
    changed = [f"{key}={cfg[key]!r} (model: {value!r})"
               for key, value in stored.items() if cfg[key] != value]
    if changed:
        print("notice: overriding the model's training config: " + ", ".join(changed),
              file=sys.stderr)
    cfg["model"] = state.kind
    return cfg, _build(TrainConfig, {**cfg, "dim": state.d})


def _load_model(model_dir: str, corpus: Corpus, corpus_dir: str) -> ModelState:
    """``load_model``, refused unless the model has the corpus's item and word counts."""
    state = load_model(model_dir)
    if (state.n, state.m) != (corpus.n, corpus.m):
        raise ModelIOError(
            f"model {model_dir} has n={state.n} items and m={state.m} words, "
            f"but corpus {corpus_dir} has n={corpus.n} and m={corpus.m}")
    return state


def _write_trace(path: Path, trace: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_FIELDS)
    writer.writeheader()
    for row in trace:
        writer.writerow({k: row.get(k, "") for k in TRACE_FIELDS})
    binio.atomic_write_bytes(path, buf.getvalue().encode())


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {**_defaults(SMCConfig), **_defaults(TrainConfig)})
    corpus = load_corpus(args.corpus)
    out = Path(args.out)
    if cfg["model"] == SMC:
        if not args.pairs:
            raise ConfigError("--pairs is required for the smc model")
        pairs, _ = _read_pairs_tsv(args.pairs, corpus)
        state = train_smc(pairs, corpus, _build(SMCConfig, cfg))
        trace: list[dict] = []
        inputs = {"corpus": args.corpus, "pairs": args.pairs}
    else:
        state, trace = train_sl_model(corpus, _build(TrainConfig, cfg))
        inputs = {"corpus": args.corpus}
    save_model(state, out, corpus)
    _write_trace(out / "loss_trace.csv", trace)
    _write_manifest(out, args, cfg, inputs)
    tail = f" final_loss={trace[-1]['loss_total']:.6g}" if trace else ""
    print(f"trained {state.kind} d={state.d} sweeps={state.sweep_count}{tail} -> {out}")
    return 0


def _split_lines(fh: Iterable[str]) -> Iterator[str]:
    """The lines of a text file as ``str.splitlines`` splits its whole text,
    read one physical line at a time."""
    for line in fh:
        yield from line.splitlines()


def cmd_retrieve(args: argparse.Namespace) -> int:
    defaults = {"k": 100, "score": None, "bigrams": True}
    cfg = _resolve(args, defaults)
    corpus = load_corpus(args.corpus)
    state = _load_model(args.model, corpus, args.corpus)
    mode = cfg["score"] or state.score_mode
    out = Path(args.out)
    count = skipped = 0
    with open_text(args.queries) as fh:
        out.mkdir(parents=True, exist_ok=True)
        with binio.atomic_writer(out / "results.tsv") as results_fh:
            lines = _split_lines(fh)
            while block := list(itertools.islice(lines, BLOCK_ROWS)):
                queries = [words_to_indices(corpus, raw.split(), bigrams=cfg["bigrams"])
                           for raw in block]
                out_rows = []
                for raw, ranked in zip(block, search(queries, state.W, state.V,
                                                     int(cfg["k"]), mode)):
                    out_rows.append(f"# query {count}\t{raw}")
                    count += 1
                    if isinstance(ranked, str):
                        out_rows.append(f"# skipped: {ranked}")
                        skipped += 1
                        continue
                    for rank, (item, score) in enumerate(ranked, 1):
                        out_rows.append(f"{rank}\t{corpus.item_ids[item]}\t{score:.8g}")
                results_fh.write(("\n".join(out_rows) + "\n").encode())
            if not count:
                results_fh.write(b"\n")
    _write_manifest(out, args, cfg,
                    {"model": args.model, "corpus": args.corpus, "queries": args.queries})
    print(f"retrieved top-{cfg['k']} ({mode}) for {count} queries "
          f"({skipped} skipped) -> {out / 'results.tsv'}")
    return 0


def _write_report(out: Path, report: dict) -> None:
    binio.atomic_write_bytes(out / "report.json",
                             json.dumps(report, indent=2, sort_keys=True).encode())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["metric", "split", "value"])
    for metric, splits in report.items():
        if isinstance(splits, dict):
            for split, value in splits.items():
                writer.writerow([metric, split, value])
        else:
            writer.writerow([metric, "", splits])
    binio.atomic_write_bytes(out / "report.csv", buf.getvalue().encode())


def cmd_eval(args: argparse.Namespace) -> int:
    defaults = {"metric": "reconstruction", "k": 10, "score": None,
                "by_length": False}
    cfg = _resolve(args, defaults)
    corpus = load_corpus(args.corpus)
    state = _load_model(args.model, corpus, args.corpus)
    mode = cfg["score"] or state.score_mode
    inputs: dict[str, str | Path] = {"model": args.model, "corpus": args.corpus}
    report: dict = {"metric": cfg["metric"], "score_mode": mode}
    if cfg["metric"] == "reconstruction":
        rep = reconstruction_recall(state, corpus.graph, mode)
        report.update(mean_recall=rep.mean, scored=len(rep.per_query),
                      skipped=rep.skipped)
    elif cfg["metric"] == "pooled":
        if not args.labeled:
            raise ConfigError("--labeled is required for the pooled metric")
        inputs["labeled"] = args.labeled
        sets = _read_labeled_sets(args.labeled, corpus)
        per_set = {}
        for name, labeled in sorted(sets.items()):
            rep = pooled_recall(state, labeled, mode)
            per_set[name] = {"mean_recall": rep.mean, "queries": len(rep.per_query),
                             "skipped": rep.skipped, "pool_size": len(labeled.pool)}
        report["sets"] = per_set
    elif cfg["metric"] == "recall":
        if not args.pairs:
            raise ConfigError("--pairs is required for the recall metric")
        inputs["pairs"] = args.pairs
        pairs, token_counts = _read_pairs_tsv(args.pairs, corpus)
        rep = recall_at_k(state, pairs, int(cfg["k"]), mode,
                          by_length=bool(cfg["by_length"]), unigram_lens=token_counts)
        report.update(k=int(cfg["k"]), mean_recall=rep.mean,
                      scored=len(rep.per_query), skipped=rep.skipped, **rep.extra)
    else:
        raise ConfigError(f"unknown metric {cfg['metric']!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report)
    _write_manifest(out, args, cfg, inputs)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_ensemble_eval(args: argparse.Namespace) -> int:
    defaults = {"k": 100, "head": None}
    cfg = _resolve(args, defaults)
    corpus = load_corpus(args.corpus)
    primary = _load_model(args.primary, corpus, args.corpus)
    secondary = _load_model(args.secondary, corpus, args.corpus)
    pairs, _ = _read_pairs_tsv(args.pairs, corpus)
    k = int(cfg["k"])
    head = k // 2 if cfg["head"] is None else int(cfg["head"])
    rep_p = recall_at_k(primary, pairs, k, primary.score_mode)
    rep_s = recall_at_k(secondary, pairs, k, secondary.score_mode)
    rep_e = ensemble_recall_at_k(primary, secondary, pairs, k, head)
    report = {"k": k, "head_len": head,
              "recall": {"primary": rep_p.mean, "secondary": rep_s.mean,
                         "ensemble": rep_e.mean},
              "skipped": {"primary": rep_p.skipped, "secondary": rep_s.skipped,
                          "ensemble": rep_e.skipped}}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report)
    _write_manifest(out, args, cfg,
                    {"primary": args.primary, "secondary": args.secondary,
                     "corpus": args.corpus, "pairs": args.pairs})
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    old_corpus = load_corpus(args.old_corpus)
    state = _load_model(args.model, old_corpus, args.old_corpus)
    # refresh runs a few sweeps, not a full training
    cfg, train_cfg = _resolve_for_model(args, state, sweeps=2, prune=False, sub_seed=None)
    new_corpus = load_corpus(args.new_corpus)
    sub_seed = None if cfg["sub_seed"] is None else int(cfg["sub_seed"])
    extended = warm_start_extend(state, old_corpus, new_corpus, sub_seed,
                                 prune=bool(cfg["prune"]), init_std=train_cfg.init_std)
    _, trace = train_sl_model(new_corpus, train_cfg, state=extended)
    out = Path(args.out)
    save_model(extended, out, new_corpus)
    _write_trace(out / "loss_trace.csv", trace)
    _write_manifest(out, args, cfg,
                    {"model": args.model, "old_corpus": args.old_corpus,
                     "new_corpus": args.new_corpus})
    print(f"refreshed {extended.kind} to n={extended.n} m={extended.m} "
          f"with {train_cfg.sweeps} sweeps -> {out}")
    return 0


def cmd_loss_audit(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    state = _load_model(args.model, corpus, args.corpus)
    _, train_cfg = _resolve_for_model(args, state)
    brute = sl_loss_bruteforce(state, corpus, train_cfg)
    efficient = sl_loss_efficient(state, corpus, train_cfg)
    rel = abs(efficient - brute) / max(1.0, abs(brute))
    print(f"bruteforce={brute:.12g} efficient={efficient:.12g} rel_diff={rel:.3e}")
    if not np.isfinite(rel) or rel > 1e-8:
        raise NumericError(f"loss paths disagree: relative difference {rel:.3e}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file mirroring flag names")
    sp.add_argument("--threads", type=int, default=None,
                    help="cap internal thread pools (default: all cores)")


def _add_flags(sp: argparse.ArgumentParser, cls, skip: Iterable[str] = ()) -> None:
    """One flag per field of the config dataclass ``cls``, but for keys in ``skip``."""
    for key, want, f in _options(cls):
        if key in skip:
            continue
        flag = f.metadata.get("flag", "--" + key.replace("_", "-"))
        if want is bool:
            sp.add_argument(flag, dest=key, action="store_const", const=not f.default)
        else:
            sp.add_argument(flag, dest=key, type=None if want is str else want,
                            choices=f.metadata.get("choices"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zsr", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("ingest", help="build and persist a corpus")
    sp.add_argument("--items", required=True)
    sp.add_argument("--sequences")
    sp.add_argument("--graph")
    sp.add_argument("--out", required=True)
    sp.add_argument("--min-word-count", dest="min_word_count", type=int)
    sp.add_argument("--min-item-count", dest="min_item_count", type=int)
    sp.add_argument("--max-neighbors", dest="max_neighbors", type=int)
    sp.add_argument("--window", type=int)
    sp.add_argument("--symmetrize", action="store_const", const=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train", help="train a model on a persisted corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pairs", help="pairs.tsv, required for --model smc")
    _add_flags(sp, TrainConfig)
    _add_flags(sp, SMCConfig, skip=_defaults(TrainConfig))
    _add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("retrieve", help="batch top-k retrieval, one query per line")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--score", choices=["dot", "cosine"])
    sp.add_argument("--no-bigrams", dest="bigrams", action="store_const", const=False)
    _add_common(sp)
    sp.set_defaults(func=cmd_retrieve)

    sp = sub.add_parser("eval", help="run a recall metric against a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--metric", choices=["reconstruction", "pooled", "recall"])
    sp.add_argument("--labeled", help="labeled_sets.jsonl for the pooled metric")
    sp.add_argument("--pairs", help="pairs.tsv for the recall metric")
    sp.add_argument("--k", type=int)
    sp.add_argument("--score", choices=["dot", "cosine"])
    sp.add_argument("--by-length", dest="by_length", action="store_const", const=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("ensemble-eval",
                        help="recall@k of the interleave of two models")
    sp.add_argument("--primary", required=True)
    sp.add_argument("--secondary", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--head", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_ensemble_eval)

    sp = sub.add_parser("refresh",
                        help="warm-start onto a new corpus and run a few sweeps")
    sp.add_argument("--model", required=True)
    sp.add_argument("--old-corpus", dest="old_corpus", required=True)
    sp.add_argument("--new-corpus", dest="new_corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--prune", action="store_const", const=True)
    sp.add_argument("--sub-seed", dest="sub_seed", type=int)
    _add_flags(sp, TrainConfig, skip=["model"])
    _add_common(sp)
    sp.set_defaults(func=cmd_refresh)

    sp = sub.add_parser("loss-audit",
                        help="compare brute-force and efficient loss paths")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    _add_flags(sp, TrainConfig, skip=["model"])
    _add_common(sp)
    sp.set_defaults(func=cmd_loss_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.error("a subcommand is required")
        limiter = _limit_threads(args.threads)
        args.threads_applied = limiter is not None
        try:
            return args.func(args)
        finally:
            if limiter is not None:
                limiter.__exit__(None, None, None)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, ModelIOError, RefreshError, SizeGuardError,
            EncodeError, ScoreError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
