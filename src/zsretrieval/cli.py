"""Command-line entry point for batch jobs.

Subcommands: ingest, train, retrieve, eval, ensemble-eval, refresh,
loss-audit. Every run writes a manifest.json next to its artifacts with the
resolved configuration, sha256 digests of the inputs, and the tool version.
Option precedence is flags > --config JSON file > built-in defaults; refresh
and loss-audit default to the objective stored with the model.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure,
4 out of memory.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import sys
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator

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
from .errors import ConfigError, IngestError, ModelIOError, NumericError, ZsrError, check, is_json
from .evaluation import (
    LabeledSet,
    ensemble_recall_at_k,
    pooled_recall,
    recall_at_k,
    reconstruction_recall,
)
from .retrieval import SCORE_MODES, search
from .sl_trainer import SWEEP_STATS, sl_loss_bruteforce, sl_loss_efficient, train_sl_model
from .smc import SAMPLINGS, SMCConfig, train_smc
from .store import (
    KINDS,
    OBJECTIVE_FIELDS,
    SMC,
    ModelState,
    TrainConfig,
    load_model,
    save_model,
    warm_start_extend,
)

QUERY_LINES = 256  # --queries lines that zsr retrieve ranks with one search call
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
    """sha256 of a file, or of a directory's files but the run records written
    beside an artifact, whose loss-trace timings differ between equal runs."""
    path = Path(path)
    if path.is_dir():
        h = hashlib.sha256()
        for f in sorted(p for p in path.rglob("*")
                        if p.is_file() and p.name not in ("manifest.json", "loss_trace.csv")):
            h.update(str(f.relative_to(path)).encode())
            h.update(bytes.fromhex(_digest_file(f)))
        return h.hexdigest()
    return _digest_file(path)


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults; only keys in ``defaults`` participate. A
    config value must have its option's type (an int serves a float; null a null
    default) and be one of its choices, if any; every value must be in its range."""
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
            (want, choices), null = args.config_types[key], defaults[key] is None
            if not (value is None and null or is_json(value, want)):
                raise ConfigError(f"{key}: expected {want.__name__}{' or null' if null else ''}, "
                                  f"got {json.dumps(value)}")
            if value is not None and choices is not None and value not in choices:
                raise ConfigError(f"{key}: expected one of {', '.join(map(json.dumps, choices))}, "
                                  f"got {json.dumps(value)}")
            resolved[key] = value
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    check(**resolved)
    return resolved


_KEYS = {"kind": "model", "d": "dim"}  # config key of a field not named as its option


def _defaults(cls) -> dict:
    """Config key -> default per field of ``TrainConfig`` or ``SMCConfig``."""
    return {_KEYS.get(f.name, f.name): f.default for f in dataclasses.fields(cls)}


def _build(cls, cfg: dict):
    """A ``cls`` from resolved config keys, which ``_resolve`` has type-checked; a
    field without a key keeps its default."""
    return cls(**{f.name: cfg[key] for f in dataclasses.fields(cls)
                  if (key := _KEYS.get(f.name, f.name)) in cfg})


def _write_manifest(args: argparse.Namespace, resolved: dict) -> None:
    """manifest.json in --out, the last file a command writes: the resolved
    config and the digest of each declared input path the command was given."""
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": resolved,
        "threads": {"requested": args.threads,
                    "applied": args.threads_applied},
        "inputs": {name: {"path": str(p), "sha256": _digest(p)}
                   for name in args.inputs if (p := getattr(args, name))},
    }
    binio.atomic_write_bytes(Path(args.out) / "manifest.json",
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
                    corpus: Corpus) -> tuple[list[tuple[list[int], int]], list[int], list[int]]:
    """pairs.tsv: query text TAB item_id; queries tokenized like build_corpus.

    Returns the (word indices, item) pairs, each query's token count and
    each pair's line number.
    """
    pairs, token_counts, linenos = [], [], []
    for lineno, (text, item_id) in read_tsv_rows(path, 2):
        if item_id not in corpus.item_index:
            raise IngestError(f"{path}:{lineno}: unknown item id {item_id!r}")
        tokens = text.split()
        pairs.append((words_to_indices(corpus, tokens), corpus.item_index[item_id]))
        token_counts.append(len(tokens))
        linenos.append(lineno)
    return pairs, token_counts, linenos


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
# Subcommands: each returns its resolved config and its stdout line, and
# main writes the manifest of the declared inputs, then prints the line.


def cmd_ingest(args: argparse.Namespace) -> tuple[dict, str]:
    defaults = args.defaults
    cfg = _resolve(args, defaults)
    if args.sequences and args.graph:
        raise ConfigError("--sequences and --graph each give the graph; pass one of them")
    unused = [key for key in ("min_item_count", "window", "symmetrize")
              if cfg[key] != defaults[key] and not args.sequences]
    if unused:
        raise ConfigError(f"{', '.join(unused)} act only on a graph built from --sequences")
    if cfg["max_neighbors"] != defaults["max_neighbors"] and not (args.sequences or args.graph):
        raise ConfigError("max_neighbors acts only on a graph from --sequences or --graph")
    items = read_items_jsonl(args.items)
    if args.sequences:
        comma = next((item_id for item_id in items if "," in item_id), None)
        if comma is not None:
            raise IngestError(f"{args.items}: item id {comma!r} holds ',', which separates "
                              "ids in sequences.tsv")
        sequences = read_sequences_tsv(args.sequences, {t: i for i, t in enumerate(items)})
        corpus = ingest_corpus(items, sequences, cfg["min_item_count"],
                               cfg["min_word_count"], cfg["max_neighbors"],
                               cfg["window"], cfg["symmetrize"])
    else:
        corpus = _build_corpus(items, cfg["min_word_count"])
        if args.graph:
            corpus.graph = read_graph_tsv(args.graph, corpus, cfg["max_neighbors"])
    out = Path(args.out)
    save_corpus(corpus, out)
    return cfg, (f"ingested {corpus.n} items, {corpus.m} words, "
                 f"{corpus.graph.nnz} graph edges -> {out}")


def _resolve_for_model(args: argparse.Namespace, state: ModelState) -> tuple[dict, TrainConfig]:
    """``_resolve`` with the model's stored objective, on the keys the command
    declares, between the defaults and --config/flags: an explicit value that
    differs from a stored one wins, with one notice line on stderr (``main``
    prints it once the command has run, so a failed run prints its error
    alone). The resolved keys and the TrainConfig take the model's d and its
    kind, refused unless square-loss."""
    TrainConfig(kind=state.kind).validate()
    stored = {key: v for key, v in (state.objective or {}).items() if key in args.defaults}
    cfg = _resolve(args, {**args.defaults, **stored})
    changed = [f"{key}={cfg[key]!r} (model: {value!r})"
               for key, value in stored.items() if cfg[key] != value]
    if changed:
        args.notice = "notice: overriding the model's training config: " + ", ".join(changed)
    cfg.update(model=state.kind, dim=state.d)
    return cfg, _build(TrainConfig, cfg)


def _load_model(model_dir: str, corpus: Corpus, corpus_dir: str) -> ModelState:
    """``load_model``, refused unless it fits the corpus: n, m and any id digest."""
    state = load_model(model_dir)
    if (state.n, state.m) != (corpus.n, corpus.m):
        raise ModelIOError(
            f"model {model_dir} has n={state.n} items and m={state.m} words, "
            f"but corpus {corpus_dir} has n={corpus.n} and m={corpus.m}")
    if state.ids_sha256 not in (None, corpus.id_digest()):
        raise ModelIOError(f"model {model_dir} was trained on other item ids or words "
                           f"than corpus {corpus_dir} has")
    return state


def _write_trace(path: Path, trace: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_FIELDS)
    writer.writeheader()
    for row in trace:
        writer.writerow({k: row.get(k, "") for k in TRACE_FIELDS})
    binio.atomic_write_bytes(path, buf.getvalue().encode())


def cmd_train(args: argparse.Namespace) -> tuple[dict, str]:
    cfg = _resolve(args, args.defaults)
    smc = cfg["model"] == SMC
    if smc and not args.pairs:
        raise ConfigError("--pairs is required for the smc model")
    if not smc and args.pairs:
        raise ConfigError("--pairs acts only on the smc model")
    own = {"model", *_defaults(SMCConfig if smc else TrainConfig)}
    unused = [key for key, value in args.defaults.items() if key not in own and cfg[key] != value]
    if unused:
        raise ConfigError(f"{', '.join(unused)} act only on the "
                          + ("square-loss models" if smc else "smc model"))
    corpus = load_corpus(args.corpus)
    out = Path(args.out)
    if smc:
        config = _build(SMCConfig, cfg)
        pairs, _, linenos = _read_pairs_tsv(args.pairs, corpus)
        if not pairs:
            raise IngestError(f"{args.pairs}: no training pairs")
        for lineno, (words, _) in zip(linenos, pairs):
            if not words:
                raise IngestError(f"{args.pairs}:{lineno}: query has no in-vocabulary words")
        state = train_smc(pairs, corpus, config)
        trace: list[dict] = []
    else:
        state, trace = train_sl_model(corpus, _build(TrainConfig, cfg))
    save_model(state, out, corpus)
    _write_trace(out / "loss_trace.csv", trace)
    tail = f" final_loss={trace[-1]['loss_total']:.6g}" if trace else ""
    return cfg, f"trained {state.kind} d={state.d} sweeps={state.sweep_count}{tail} -> {out}"


def _split_lines(fh: Iterable[str]) -> Iterator[str]:
    """The lines of a text file as ``str.splitlines`` splits its whole text,
    read one physical line at a time."""
    for line in fh:
        yield from line.splitlines()


def cmd_retrieve(args: argparse.Namespace) -> tuple[dict, str]:
    cfg = _resolve(args, args.defaults)
    corpus = load_corpus(args.corpus)
    state = _load_model(args.model, corpus, args.corpus)
    mode = cfg["score"] or state.score_mode
    out = Path(args.out)
    count = skipped = 0
    with open_text(args.queries) as fh:
        out.mkdir(parents=True, exist_ok=True)
        with binio.atomic_writer(out / "results.tsv") as results_fh:
            lines = _split_lines(fh)
            while block := list(itertools.islice(lines, QUERY_LINES)):
                queries = [words_to_indices(corpus, raw.split(), bigrams=cfg["bigrams"])
                           for raw in block]
                out_rows = []
                for raw, ranked in zip(block, search(queries, state.W, state.V,
                                                     cfg["k"], mode)):
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
    return cfg, (f"retrieved top-{cfg['k']} ({mode}) for {count} queries "
                 f"({skipped} skipped) -> {out / 'results.tsv'}")


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


def cmd_eval(args: argparse.Namespace) -> tuple[dict, str]:
    cfg = _resolve(args, args.defaults)
    unused = [key for key, given in (("k", cfg["k"] != args.defaults["k"]),
                                     ("by_length", cfg["by_length"]), ("--pairs", args.pairs))
              if given]
    if unused and cfg["metric"] != "recall":
        raise ConfigError(f"{', '.join(unused)} act only on the recall metric")
    if args.labeled and cfg["metric"] != "pooled":
        raise ConfigError("--labeled acts only on the pooled metric")
    if cfg["metric"] == "pooled" and not args.labeled:
        raise ConfigError("--labeled is required for the pooled metric")
    if cfg["metric"] == "recall" and not args.pairs:
        raise ConfigError("--pairs is required for the recall metric")
    corpus = load_corpus(args.corpus)
    state = _load_model(args.model, corpus, args.corpus)
    mode = cfg["score"] or state.score_mode
    report: dict = {"metric": cfg["metric"], "score_mode": mode}
    if cfg["metric"] == "reconstruction":
        rep = reconstruction_recall(state, corpus.graph, mode)
        report.update(mean_recall=rep.mean, scored=len(rep.per_query),
                      skipped=rep.skipped)
    elif cfg["metric"] == "pooled":
        sets = _read_labeled_sets(args.labeled, corpus)
        per_set = {}
        for name, labeled in sorted(sets.items()):
            rep = pooled_recall(state, labeled, mode)
            per_set[name] = {"mean_recall": rep.mean, "queries": len(rep.per_query),
                             "skipped": rep.skipped, "pool_size": len(labeled.pool)}
        report["sets"] = per_set
    else:  # recall
        pairs, token_counts, _ = _read_pairs_tsv(args.pairs, corpus)
        rep = recall_at_k(state, pairs, cfg["k"], mode,
                          token_counts if cfg["by_length"] else None)
        report.update(k=cfg["k"], mean_recall=rep.mean,
                      scored=len(rep.per_query), skipped=rep.skipped, **rep.extra)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report)
    return cfg, json.dumps(report, sort_keys=True)


def cmd_ensemble_eval(args: argparse.Namespace) -> tuple[dict, str]:
    cfg = _resolve(args, args.defaults)
    corpus = load_corpus(args.corpus)
    primary = _load_model(args.primary, corpus, args.corpus)
    secondary = _load_model(args.secondary, corpus, args.corpus)
    pairs, _, _ = _read_pairs_tsv(args.pairs, corpus)
    k = cfg["k"]
    head = k // 2 if cfg["head"] is None else cfg["head"]
    rep_e = ensemble_recall_at_k(primary, secondary, pairs, k, head)
    rep_p, rep_s = rep_e.extra["primary"], rep_e.extra["secondary"]
    report = {"k": k, "head_len": head,
              "recall": {"primary": rep_p.mean, "secondary": rep_s.mean,
                         "ensemble": rep_e.mean},
              "skipped": {"primary": rep_p.skipped, "secondary": rep_s.skipped,
                          "ensemble": rep_e.skipped}}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out, report)
    return cfg, json.dumps(report, sort_keys=True)


def cmd_refresh(args: argparse.Namespace) -> tuple[dict, str]:
    old_corpus = load_corpus(args.old_corpus)
    state = _load_model(args.model, old_corpus, args.old_corpus)
    cfg, train_cfg = _resolve_for_model(args, state)
    new_corpus = load_corpus(args.new_corpus)
    extended = warm_start_extend(state, old_corpus, new_corpus, cfg["sub_seed"],
                                 prune=cfg["prune"], init_std=train_cfg.init_std)
    _, trace = train_sl_model(new_corpus, train_cfg, state=extended)
    out = Path(args.out)
    save_model(extended, out, new_corpus)
    _write_trace(out / "loss_trace.csv", trace)
    return cfg, (f"refreshed {extended.kind} to n={extended.n} m={extended.m} "
                 f"with {train_cfg.sweeps} sweeps -> {out}")


def cmd_loss_audit(args: argparse.Namespace) -> tuple[dict, None]:
    """Prints its line itself, before it can fail; it writes no manifest."""
    corpus = load_corpus(args.corpus)
    state = _load_model(args.model, corpus, args.corpus)
    cfg, train_cfg = _resolve_for_model(args, state)
    brute = sl_loss_bruteforce(state, corpus, train_cfg)
    efficient = sl_loss_efficient(state, corpus, train_cfg)
    rel = abs(efficient - brute) / max(1.0, abs(brute))
    print(f"bruteforce={brute:.12g} efficient={efficient:.12g} rel_diff={rel:.3e}")
    if not np.isfinite(rel) or rel > 1e-8:
        raise NumericError(f"loss paths disagree: relative difference {rel:.3e}")
    return cfg, None


# ---------------------------------------------------------------------------
# Parser wiring


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file mirroring flag names")
    sp.add_argument("--threads", type=int, default=None,
                    help="cap internal thread pools (default: all cores)")
    # Per option, the type its --config value must have (a switch takes a bool)
    # and the choices it must be one of, or None.
    sp.set_defaults(config_types={a.dest: (bool if a.const is not None else a.type or str,
                                           a.choices) for a in sp._actions})


# What a default cannot say: another flag, the choices, the type of a None default.
_FLAGS = {
    "lam": {"flag": "--lambda"}, "use_weights": {"flag": "--no-weights"},
    "weight_negatives": {"flag": "--unweighted-negatives"}, "bigrams": {"flag": "--no-bigrams"},
    "model": {"choices": KINDS}, "sampling": {"choices": SAMPLINGS},
    "score": {"choices": SCORE_MODES},
    "metric": {"choices": ("reconstruction", "pooled", "recall")},
    "head": {"type": int}, "sub_seed": {"type": int},
}


def _add_options(sp: argparse.ArgumentParser, defaults: dict) -> None:
    """A flag ``--key-with-dashes`` per config key of ``defaults``: a bool sets the
    opposite of its default, and another option takes its default's type (a str
    for a None default), unless ``_FLAGS`` says otherwise. No flag has an argparse
    default; the subparser keeps ``defaults``, merged across calls, for ``_resolve``."""
    for key, default in defaults.items():
        spec = dict(_FLAGS.get(key, {}))
        flag = spec.pop("flag", "--" + key.replace("_", "-"))
        if isinstance(default, bool):
            sp.add_argument(flag, dest=key, action="store_const", const=not default)
        else:
            spec.setdefault("type", type(default) if isinstance(default, (int, float)) else None)
            sp.add_argument(flag, dest=key, **spec)
    sp.set_defaults(defaults={**(sp.get_default("defaults") or {}), **defaults})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zsr", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    # refresh and loss-audit take the model's kind and d, and its objective by default
    objective = {key: v for key, v in _defaults(TrainConfig).items() if key in OBJECTIVE_FIELDS}

    sp = sub.add_parser("ingest", help="build and persist a corpus")
    sp.add_argument("--items", required=True)
    sp.add_argument("--sequences")
    sp.add_argument("--graph")
    sp.add_argument("--out", required=True)
    _add_options(sp, {"min_word_count": 0, "min_item_count": 0, "max_neighbors": 250,
                      "window": 1, "symmetrize": False})
    _add_common(sp)
    sp.set_defaults(func=cmd_ingest, inputs=("items", "sequences", "graph"))

    sp = sub.add_parser("train", help="train a model on a persisted corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pairs", help="pairs.tsv, required for --model smc")
    _add_options(sp, {**_defaults(TrainConfig), **_defaults(SMCConfig)})
    _add_common(sp)
    sp.set_defaults(func=cmd_train, inputs=("corpus", "pairs"))

    sp = sub.add_parser("retrieve", help="batch top-k retrieval, one query per line")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--out", required=True)
    _add_options(sp, {"k": 100, "score": None, "bigrams": True})
    _add_common(sp)
    sp.set_defaults(func=cmd_retrieve, inputs=("model", "corpus", "queries"))

    sp = sub.add_parser("eval", help="run a recall metric against a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    _add_options(sp, {"metric": "reconstruction"})
    sp.add_argument("--labeled", help="labeled_sets.jsonl for the pooled metric")
    sp.add_argument("--pairs", help="pairs.tsv for the recall metric")
    _add_options(sp, {"k": 10, "score": None, "by_length": False})
    _add_common(sp)
    sp.set_defaults(func=cmd_eval, inputs=("model", "corpus", "labeled", "pairs"))

    sp = sub.add_parser("ensemble-eval",
                        help="recall@k of the interleave of two models")
    sp.add_argument("--primary", required=True)
    sp.add_argument("--secondary", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--pairs", required=True)
    sp.add_argument("--out", required=True)
    _add_options(sp, {"k": 100, "head": None})
    _add_common(sp)
    sp.set_defaults(func=cmd_ensemble_eval, inputs=("primary", "secondary", "corpus", "pairs"))

    sp = sub.add_parser("refresh",
                        help="warm-start onto a new corpus and run a few sweeps")
    sp.add_argument("--model", required=True)
    sp.add_argument("--old-corpus", dest="old_corpus", required=True)
    sp.add_argument("--new-corpus", dest="new_corpus", required=True)
    sp.add_argument("--out", required=True)
    # refresh runs a few sweeps, not a full training
    _add_options(sp, {"prune": False, "sub_seed": None, "sweeps": 2, **objective})
    _add_common(sp)
    sp.set_defaults(func=cmd_refresh, inputs=("model", "old_corpus", "new_corpus"))

    sp = sub.add_parser("loss-audit",
                        help="compare brute-force and efficient loss paths")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    # the objective keys the loss reads
    _add_options(sp, {key: v for key, v in objective.items() if key != "init_std"})
    _add_common(sp)
    sp.set_defaults(func=cmd_loss_audit)

    return parser


@contextmanager
def _one_line_warnings() -> Iterator[None]:
    """Format each warning shown meanwhile as one line, ``warning: <message>``;
    whether a warning is shown, recorded or raised is left to the filters."""
    shown = warnings.formatwarning
    warnings.formatwarning = lambda message, *_, **__: f"warning: {message}\n"
    try:
        yield
    finally:
        warnings.formatwarning = shown


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.error("a subcommand is required")
        check(threads=args.threads)
        limiter = _limit_threads(args.threads)
        args.threads_applied = limiter is not None
        # each command reports a non-finite result itself, in one line
        with (nullcontext() if limiter is None else limiter, np.errstate(all="ignore"),
              _one_line_warnings()):
            cfg, summary = args.func(args)
        if "out" in args:
            _write_manifest(args, cfg)
        if "notice" in args:
            print(args.notice, file=sys.stderr)
        if summary is not None:
            print(summary)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ZsrError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
