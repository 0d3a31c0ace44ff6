"""Benchmark for zsretrieval: seeded workloads, end-to-end and per-layer metrics.

One run of one workload (what a comparison between two commits repeats):

    python3 perfbench/run.py --workload batch --seed 1 --seconds 45 --trace 0

generates the workload's inputs from the seed (in a child process), sets up,
repeats the workload's pipeline for at least ``--seconds`` seconds, checks
the outputs, prints every metric by name and unit and, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations, each preceded by the workload's set-up
(traced along with a traced iteration), and reports the per-layer metrics,
the traced minus untraced pipeline time as ``tracing.overhead_s``, and
writes the spans next to the run's result.

Other modes:

    python3 perfbench/run.py               # every workload once, seed 0;
                                           # rewrites BENCHMARK.json
    python3 perfbench/run.py --steady 10   # two sets of 10 seeds each:
                                           # quartiles, spreads, median drift

The package is imported from ``src/`` of the checkout this file lives in;
without it the run exits with code 2 before doing anything. BLAS is pinned
to one thread and glibc's allocator thresholds are fixed before numpy
loads, so that runs compare.
Everything a run writes goes under ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NoReturn

BLAS_THREADS = "1"
# glibc moves its mmap threshold up each time a large block is freed, so
# which arrays end up in the heap, and with them the peak RSS, flipped
# between two levels from one input seed to the next. Fixed thresholds make
# the allocator behave the same on every run (glibc reads them at start-up,
# hence the re-exec in __main__).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
              "MKL_NUM_THREADS": BLAS_THREADS,
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5   # at the start; one more before each iteration of an untraced run
MIN_ITERATIONS = 2   # per kind of iteration (untraced, traced)
SUBRUN_TIMEOUT = 600

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (this directory is not a package)


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Package import and environment


def import_package() -> SimpleNamespace:
    """Fresh import of the package from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "zsretrieval" or m.startswith("zsretrieval.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("zsretrieval")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"imported zsretrieval from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"zsretrieval.{name}")
            for name in ("corpus", "binio", "store", "sl_trainer", "encoder",
                         "retrieval", "evaluation", "errors", "cli")}
    return SimpleNamespace(package=pkg, modules=mods, **mods)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    has_tpc = importlib.util.find_spec("threadpoolctl") is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or "?",
        "blas_threads_set": int(BLAS_THREADS),
        "pinned_env": PINNED_ENV,
        "threadpoolctl": has_tpc,
        # zsr --threads goes through threadpoolctl and does nothing without it.
        "cli_threads_flag_effective": has_tpc,
    }


# ---------------------------------------------------------------------------
# One run of one workload


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(recs: list[dict], setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, extra per-workload metrics) from untraced iterations."""
    qps = [r["queries"] / r["query_s"] for r in recs]
    first = recs[0]
    gated = {
        "setup_s": setup_s,
        "pipeline_s": median([r["pipeline_s"] for r in recs]),
        "recon_recall": first["recon_recall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"iterations": len(recs), "eval_s": median([r["eval_s"] for r in recs]),
             "pipeline_cpu_s": median([r["pipeline_cpu_s"] for r in recs])}
    for key in ("ingest_s", "train_s", "refresh_s"):
        if key in first:
            extra[key] = median([r[key] for r in recs])
    if "latencies" in first:
        lat = [x for r in recs for x in r["latencies"]]
        extra.update(serve_qps=median(qps), query_p50_ms=median(lat) * 1e3,
                     query_p99_ms=statistics.quantiles(lat, n=100)[98] * 1e3,
                     query_samples=len(lat))
    else:
        extra["retrieve_qps"] = median(qps)
    for key in ("final_loss", "transfer_recall_at_10", "recon_recall_zsl_te",
                "recon_recall_refreshed"):
        if key in first:
            extra[key] = first[key]
    attempted = sum(r["attempted"] for r in recs)
    extra["failed_ops_frac"] = sum(r["failed"] for r in recs) / max(attempted, 1)
    return gated, extra


def per_layer_metrics(tracer, traced: list[dict], untraced: list[dict],
                      probe: dict[str, float]) -> dict:
    from tracer import TRACED_MODULES

    st = tracer.self_times()
    per_iter = []
    for rec in traced:
        i = rec["run_id"]

        def s(name):
            return st.get((i, name), (0.0, 0))[0]

        def calls(name):
            return st.get((i, name), (0.0, 0))[1]

        def count(key):
            return tracer.counts.get((i, key), 0)

        def us_per_call(name):
            return s(name) / calls(name) * 1e6 if calls(name) else 0.0

        g = "corpus.build_correlation_graph"
        m = {
            f"{g}.s": s(g),
            f"{g}.transitions": count(f"{g}.transitions"),
            f"{g}.rows_truncated": count(f"{g}.rows_truncated"),
            "corpus.load_corpus.calls": calls("corpus.load_corpus"),
            "binio.read_block.bytes": count("binio.read_block.bytes"),
            "binio.write_block.bytes": count("binio.write_block.bytes"),
            "sl_trainer.sl_loss_efficient.calls": calls("sl_trainer.sl_loss_efficient"),
            "sl_trainer.solve_fallbacks": rec["solve_fallbacks"],
            "encoder.encode_bow.us": us_per_call("encoder.encode_bow"),
            "retrieval.retrieve_topk.us": us_per_call("retrieval.retrieve_topk"),
            "retrieval.retrieve_topk.calls": calls("retrieval.retrieve_topk"),
            "retrieval.retrieve_topk.items_scanned":
                count("retrieval.retrieve_topk.items_scanned"),
            "retrieval.retrieve_topk.bytes_computed":
                count("retrieval.retrieve_topk.bytes_computed"),
            "evaluation.skipped": rec.get("eval_skipped", 0),
            "tracing.spans": sum(c for (run, _), (_, c) in st.items() if run == i),
        }
        rows = count("sl_trainer.SLTrainer.sweep.rows")
        sweep = s("sl_trainer.SLTrainer.sweep")
        m["sl_trainer.SLTrainer.sweep.us_per_row"] = sweep / rows * 1e6 if rows else 0.0
        for name, _ in spec.PER_LAYER:
            if name.endswith(".s") and name not in m:
                m[name] = s(name[:-2])
        for layer in TRACED_MODULES:
            m[f"{layer}.self_s"] = sum(secs for (run, name), (secs, _) in st.items()
                                       if run == i and name.startswith(f"{layer}."))
        per_iter.append(m)
    out = {name: median([m[name] for m in per_iter]) for name in per_iter[0]}
    out.update(probe)
    out["tracing.overhead_s"] = (median([r["pipeline_s"] for r in traced])
                                 - median([r["pipeline_s"] for r in untraced]))
    return {name: out[name] for name, _ in spec.PER_LAYER}


def row_probe(zsr, targets: list) -> dict[str, float]:
    """Microseconds per row of a full pass of SLTrainer.update_row per block,
    on a copy of a trained state; 0 for a block no target covers."""
    out = {f"sl_trainer.update_row.{b}.us": 0.0 for b in ("V", "U", "W")}
    for state, corpus, config, blocks in targets:
        trainer = zsr.sl_trainer.SLTrainer(state.copy(), corpus, config)
        for block in blocks:
            rows = corpus.m if block == "W" else corpus.n
            trainer.refresh()
            t0 = perf_counter()
            for row in range(rows):
                trainer.update_row(block, row)
            out[f"sl_trainer.update_row.{block}.us"] = (perf_counter() - t0) / rows * 1e6
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailure

    tag = f"{workload}-s{seed}-t{int(trace)}"
    work = WORK / f"{tag}-p{os.getpid()}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        gen = subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                              "--seed", str(seed), "--out", str(work / "inputs")],
                             capture_output=True, text=True, timeout=SUBRUN_TIMEOUT)
        if gen.returncode != 0:
            fail(f"input generation failed: {gen.stderr.strip()}")
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        print("inputs " + gen.stdout.strip())

        wl = WORKLOADS[workload](import_package(), work / "inputs", work)
        correct, error = True, ""
        setups: list[float] = []

        def timed_setup() -> None:
            t0 = perf_counter()
            wl.zsr = import_package()
            wl.setup()
            setups.append(perf_counter() - t0)

        try:
            wl.prepare()
            for _ in range(SETUP_REPEATS):
                timed_setup()
            tracer = Tracer()
            if trace:
                tracer.install(wl.zsr.package, wl.zsr.modules)
            recs: list[dict] = []
            start = perf_counter()
            # A traced run alternates untraced and traced iterations after
            # one untraced warm-up, so the overhead compares warm to warm.
            wanted = 2 * MIN_ITERATIONS + 1 if trace else MIN_ITERATIONS
            while True:
                i = len(recs)
                traced = trace and i % 2 == 1
                tracer.enabled, tracer.run_id = traced, i
                if trace:
                    # Set up again under the tracer (on the same import, which
                    # it wraps), so the set-up's loads count in this
                    # iteration's spans.
                    wl.setup()
                else:
                    # Set-ups spread over the run see the same swings in
                    # machine speed as the iterations do.
                    timed_setup()
                rec = wl.iteration(i)
                tracer.enabled = False
                rec["run_id"], rec["traced"] = i, traced
                wl.check(i, rec)
                recs.append(rec)
                if perf_counter() - start >= seconds and len(recs) >= wanted:
                    break
            tracer.uninstall()
            untraced = [r for r in recs if not r["traced"]]
            if trace:
                # untraced[0] is the warm-up.
                metrics = per_layer_metrics(tracer, [r for r in recs if r["traced"]],
                                            untraced[1:], row_probe(wl.zsr, wl.probe()))
                tracer.write(results / f"{tag}-spans.jsonl")
                units, extra = dict(spec.PER_LAYER), {}
            else:
                metrics, extra = end_to_end_metrics(untraced, median(setups))
                units = {n: u for n, u, _, _ in spec.END_TO_END}
        except CheckFailure as exc:
            correct, error = False, str(exc)
            metrics, extra, units, recs = {}, {}, {}, []

        attempted = sum(r["attempted"] for r in recs) or 1
        failed = sum(r["failed"] for r in recs)
        if correct and failed:
            correct, error = False, f"{failed} of {attempted} operations failed"
        extra_units = dict(spec.EXTRA)
        for name, value in extra.items():
            print(f"metric {name} {value!r} {extra_units[name]}")
        for name, value in metrics.items():
            print(f"metric {name} {value!r} {units[name]}")
        if error:
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
        record = dict(result, workload=workload, seed=seed, trace=trace, env=env,
                      extra=extra, error=error,
                      iterations=[{k: v for k, v in r.items()
                                   if not k.startswith("_") and k != "latencies"}
                                  for r in recs])
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        print(json.dumps(result, sort_keys=True))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Modes that drive runs in child processes


def child_run(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=SUBRUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload} seed {seed}: no result (exit {proc.returncode}): "
             f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            printed[name] = (float(value), unit)
    result["printed"] = printed
    result["stderr"] = proc.stderr.strip()
    return result


def run_all(seed: int, seconds: float) -> int:
    ok = True
    for name, why in spec.WORKLOADS:
        print(f"== {name}: {why}")
        res = child_run(name, seed, seconds)
        for metric, (value, unit) in res["printed"].items():
            print(f"  {metric:24s} {value:14.6g} {unit}")
        print(f"  correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        if res["stderr"]:
            print("  " + res["stderr"].replace("\n", "\n  "))
        ok &= res["correct"]
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    return 0 if ok else 1


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(vals, n=4)) if len(vals) > 1 else (vals[0],) * 3


def run_set(label: str, runs: int, first_seed: int, seconds: float) -> tuple[dict, bool]:
    """Every workload on seeds first_seed .. first_seed + runs - 1; prints the
    median, quartiles and spread (q3 - q1) / median of every printed metric
    and flags gated metrics whose spread exceeds their bound (or a third of
    it). Returns {workload: {metric: summary}} and whether a bound was
    exceeded."""
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    report, exceeded = {}, False
    for name, _ in spec.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(first_seed, first_seed + runs):
            t0 = perf_counter()
            res = child_run(name, seed, seconds)
            wall = perf_counter() - t0
            if not res["correct"]:
                fail(f"{name} seed {seed} incorrect: {res['stderr']}", 1)
            for metric, (value, unit) in res["printed"].items():
                values.setdefault(metric, []).append(value)
                units[metric] = unit
            print(f"{label} {name} seed {seed} ({wall:.1f}s): " + ", ".join(
                f"{m}={v[-1]:.5g}" for m, v in values.items() if m in bounds), flush=True)
        print(f"== {label} {name} ({runs} seeds from {first_seed})")
        report[name] = {}
        for metric, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, exceeded = "  EXCEEDS BOUND", True
                elif spread > bound / 3:
                    flag = "  above a third of the bound"
            report[name][metric] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bound, "unit": units[metric]}
            print(f"  {metric:24s} median {q2:12.6g} {units[metric]:8s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:7.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag, flush=True)
    return report, exceeded


def steady(runs: int, first_seed: int, seconds: float) -> int:
    """Two sets of `runs` seeds each, one after the other (the second on the
    next `runs` seeds), as two comparisons of the same code would make them.
    Flags a gated metric whose spread within a set exceeds its bound, or
    whose median in the second set is worse than in the first by more than
    its bound."""
    first, exceeded1 = run_set("set 1", runs, first_seed, seconds)
    second, exceeded2 = run_set("set 2", runs, first_seed + runs, seconds)
    drifted = False
    print("== median of set 2 / median of set 1")
    for name, _ in spec.WORKLOADS:
        for metric, _, better, bound in spec.END_TO_END:
            m1, m2 = first[name][metric]["median"], second[name][metric]["median"]
            ratio = m2 / m1
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            flag = ""
            if worse > bound:
                flag, drifted = "  WORSE BY MORE THAN THE BOUND", True
            print(f"  {name:8s} {metric:16s} {ratio:8.4f} bound {bound}{flag}")
    WORK.mkdir(exist_ok=True)
    (WORK / "steady.json").write_text(json.dumps({"set1": first, "set2": second},
                                                 indent=1, sort_keys=True))
    return 1 if exceeded1 or exceeded2 or drifted else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS",
                    help="run every workload on two sets of RUNS seeds and compare them")
    args = ap.parse_args()
    if not (SRC / "zsretrieval" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'zsretrieval'}; run from a checkout of the repository")
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.steady:
        return steady(args.steady, args.seed, args.seconds)
    return run_all(args.seed, args.seconds)


if __name__ == "__main__":
    # numpy is imported only after this point, so the pins reach it.
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
