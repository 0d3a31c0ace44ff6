"""In-memory span tracer installed around the package's public functions.

The program has no tracing of its own, so the benchmark wraps, from the
outside, every public function and public method defined in each traced
module, and rebinds every name under which another package module imported
the same object (``cli`` imports most of the package by name). Each call
records a span ``[name, start, end, parent, run_id]``; hooks add counts of
work (bytes, rows, transitions). Spans stay in memory and are written out
when the run ends.

A span's self time is its duration minus the durations of its direct
children. Time spent in the tracer's own count hooks is recorded as a child
span named ``tracing.hook`` so it is not charged to the caller.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

TRACED_MODULES = ("corpus", "binio", "store", "sl_trainer", "encoder",
                  "retrieval", "evaluation", "cli")
HOOK = "tracing.hook"


def _graph_counts(args, kwargs) -> dict:
    """Transitions read and rows cut by the neighbour cap in one graph build."""
    names = ("sequences", "n_items", "max_neighbors", "window", "symmetrize")
    bound = dict(zip(names, args), **kwargs)
    window = bound.get("window", 1)
    keys = []
    transitions = 0
    for seq in bound["sequences"]:
        seq = np.asarray(seq, dtype=np.int64)
        for w in range(1, window + 1):
            q, p = seq[:-w], seq[w:]
            transitions += len(q)
            keep = q != p
            keys.append(q[keep] * bound["n_items"] + p[keep])
    rows_truncated = 0
    if keys:
        pairs = np.unique(np.concatenate(keys))
        src = pairs // bound["n_items"]
        if bound.get("symmetrize"):
            dst = pairs % bound["n_items"]
            pairs = np.unique(np.concatenate([pairs, dst * bound["n_items"] + src]))
            src = pairs // bound["n_items"]
        degree = np.bincount(src, minlength=bound["n_items"])
        rows_truncated = int(np.sum(degree > bound["max_neighbors"]))
    return {"transitions": transitions, "rows_truncated": rows_truncated}


def _count_hooks() -> dict:
    """name -> hook(args, kwargs, result) returning {counter: increment}."""

    def topk(args, kwargs, result):
        V = args[1] if len(args) > 1 else kwargs["V"]
        return {"items_scanned": V.shape[0], "bytes_computed": V.shape[0] * V.shape[1] * 8}

    def sweep(args, kwargs, result):
        trainer = args[0]
        state, corpus = trainer.state, trainer.corpus
        rows = corpus.n + corpus.m + (corpus.n if state.U is not None else 0)
        return {"rows": rows}

    return {
        "corpus.build_correlation_graph": lambda a, k, r: _graph_counts(a, k),
        "binio.read_block": lambda a, k, r: {"bytes": len(r[2])},
        "binio.write_block": lambda a, k, r: {
            "bytes": len(a[4] if len(a) > 4 else k["payload"])},
        "retrieval.retrieve_topk": topk,
        "sl_trainer.SLTrainer.sweep": sweep,
    }


class Tracer:
    """Spans and counters for one benchmark run.

    ``install`` rebinds the package's functions to recording wrappers;
    ``enabled`` switches recording on and off without rebinding, so traced
    and untraced iterations of one run execute the same code objects.
    ``uninstall`` restores every original binding.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.stack: list[int] = []
        self.run_id = 0
        self.enabled = False
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            span = [span_name, 0.0, 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    tracer.counts[(tracer.run_id, f"{span_name}.{key}")] += inc
                tracer.spans.append([HOOK, span[2], perf_counter(), parent, tracer.run_id])
            return result

        return wrapper

    def install(self, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        hooks = _count_hooks()
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if short == "cli":
                    # cli's own functions are the command wrappers; main
                    # stands for all of them, named by subcommand.
                    if attr == "main":
                        self._patch(mod, attr, self._wrap(_cli_name, obj))
                        replaced[id(obj)] = getattr(mod, attr)
                    continue
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapped = self._wrap(name, obj, hooks.get(name))
                    self._patch(mod, attr, wrapped)
                    replaced[id(obj)] = wrapped
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj, hooks)
        # Rebind names that other modules imported (``from .x import f``).
        targets = [package] + [modules[s] for s in TRACED_MODULES]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None and wrapped is not obj:
                    self._patch(mod, attr, wrapped)

    def _wrap_methods(self, short: str, cls: type, hooks: dict) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                label = "init"
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{short}.{cls.__name__}.{label}"
            self._patch(cls, attr, self._wrap(name, fn, hooks.get(name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()
        self.enabled = False

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], tuple[float, int]]:
        """(run_id, name) -> (total self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[int, str], list] = defaultdict(lambda: [0.0, 0])
        for k, (name, start, end, _, run_id) in enumerate(self.spans):
            acc = out[(run_id, name)]
            acc[0] += (end - start) - child[k]
            acc[1] += 1
        return {key: (v[0], v[1]) for key, v in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
            for (run_id, key), value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": key, "value": value, "run": run_id}) + "\n")


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else "none"
    return f"cli.main.{command}"
