"""What the benchmark measures: workloads, metrics, bounds and run length.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py`` (a run of every workload), so the two never
disagree.

Every end-to-end metric is reported by every workload, so each one is
defined in terms every workload has: its set-up, one iteration of its
pipeline, its final model and its process. Stage times (eval, ingest, train,
refresh, query rates and quantiles) and quality figures that exist on only
some workloads (final loss, transfer recall) are printed by each run as
extra lines, and the per-layer trace breaks every stage down further.

Workload `batch` runs two phases per iteration: train_te (ingest, zsl_te
training, retrieve, eval) and grow (ingest, zsl_me training, grown ingest,
refresh, retrieve, eval); `serve` is the read side. Which layer moves which
metric, and where (written down before any optimisation is measured;
metrics in brackets are printed, not gated):

  corpus.build_correlation_graph.*, read_*, build_corpus   pipeline_s [ingest_s]  batch (mostly the grow phase)
  corpus.save_corpus / load_corpus, binio.*                pipeline_s  batch; setup_s on serve
  store.init_model_state / save_model / load_model         pipeline_s [train_s]  batch; setup_s on serve
  store.warm_start_extend                                  pipeline_s [refresh_s]  batch (grow phase)
  sl_trainer.SLTrainer.init / sweep / refresh, update_row  pipeline_s [train_s, refresh_s]  batch: V, W probed on
                                                           the zsl_te model, U on the refreshed zsl_me model
  sl_trainer.sl_loss_efficient                             pipeline_s [train_s]  batch
  sl_trainer.solve_fallbacks                               failed ops, recon_recall  batch
  encoder.encode_bow, retrieval.retrieve_topk              pipeline_s [serve_qps, query_p50_ms, query_p99_ms]  serve;
                                                           [retrieve_qps] batch
  retrieval.ensemble_interleave, evaluation.*              pipeline_s [eval_s]  serve (large), batch (small)
  cli.main.<command>, cli.self_s                           pipeline_s  batch

Predictions. A faster zsl_te W pass saves at most its share of the sweep
(the W row probe against the V one shows the share) in batch's train_s and
leaves serve unchanged. A batched top-k index lowers pipeline_s on serve
(query quantiles and eval_s), may raise setup_s, and leaves train_s on batch
unchanged. A vectorized graph build lowers ingest_s and pipeline_s on batch
and leaves serve unchanged.
"""
from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 45

# Why each workload is in the benchmark. The workload definitions live in
# perfbench/workloads.py and the input sizes in perfbench/gen.py. train_te
# and grow were separate workloads at first; see the Batch docstring.
WORKLOADS = [
    ("batch",
     "CLI write side: zsl_te ingest/train/retrieve/eval, then zsl_me train, grown "
     "ingest and warm-start refresh; bound by CD sweeps (V, U, W) and graph builds"),
    ("serve",
     "no training: a persisted model with planted ties and zero rows answers a "
     "closed loop of text queries, then every recall metric; bound by the top-k scan"),
]

# (name, unit, better, bound). Bounds come from steadiness runs
# (run.py --steady 10: two sets of ten seeds, one after the other) on a
# shared 2-core machine whose CPU speed switches between two levels 1.4x
# apart every second or so, on either core, in a mix that drifts over
# minutes: identical pipeline iterations there took from 0.7x to 1.4x of
# their median, and the medians of two sets of ten runs differed by up to
# 37%. Process CPU time tracked wall time within a few percent (the host is
# slower, not taking the CPU away), so gating it instead would not help; it
# is printed as pipeline_cpu_s. pipeline_s is the only gated time besides
# setup_s, at the 0.25 ceiling, and the shorter stage timings below are
# printed but too noisy there to gate. recon_recall and peak_rss_mb depend
# only on the inputs, so their spread is the spread over the seeds' inputs.
# The largest spreads measured in four sets of ten seeds were 0.034 for
# recon_recall (batch) and 0.026 for peak_rss_mb (serve): the peak_rss_mb
# bound is three times that, the recon_recall bound twice, so that a change
# that loses more than 7% of the recall fails.
END_TO_END = [
    # Median over repeats, five at the start and one before each iteration,
    # of a fresh package import plus loading the persisted state the
    # workload starts from (both models and the corpus on serve; nothing on
    # batch, which starts from raw files).
    ("setup_s", "s", "lower", 0.25),
    # Median wall time of one pipeline iteration.
    ("pipeline_s", "s", "lower", 0.25),
    # Graph reconstruction recall of the workload's final model (on batch,
    # the mean over the zsl_te model and the refreshed zsl_me model).
    ("recon_recall", "fraction", "higher", 0.07),
    # ru_maxrss of the workload process; input generation runs in a child.
    ("peak_rss_mb", "MB", "lower", 0.08),
]

# Printed by every run next to the gated metrics, for the workloads that
# have them; the benchmark's steadiness mode reports their quartiles too.
# pipeline_cpu_s is the process CPU time of the same span as pipeline_s.
# eval_s is the median time of the evaluation step; retrieve_qps counts
# queries per second of zsr retrieve including its loads and output;
# serve_qps and the query quantiles come from the closed loop on serve.
EXTRA = [
    ("pipeline_cpu_s", "s"), ("eval_s", "s"), ("ingest_s", "s"), ("train_s", "s"),
    ("refresh_s", "s"),
    ("retrieve_qps", "1/s"), ("serve_qps", "1/s"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"), ("query_samples", "count"),
    ("final_loss", "loss"), ("transfer_recall_at_10", "fraction"),
    ("recon_recall_zsl_te", "fraction"), ("recon_recall_refreshed", "fraction"),
    ("failed_ops_frac", "fraction"), ("iterations", "count"),
]

# Per-layer metrics from the traced run. A traced iteration covers the
# workload's set-up (on serve, loading both models and the corpus) and one
# pass of its pipeline. ".s" is self time in seconds per traced iteration,
# "<module>.self_s" the self time of all of a module's spans (for cli:
# argument parsing, manifest digests and result formatting), ".us" is mean
# self time per call (or per row for the row probe), ".calls" and the rest
# are counts per iteration. A layer a workload does not run reports 0 there.
PER_LAYER = [
    ("corpus.build_correlation_graph.s", "s"),
    ("corpus.build_correlation_graph.transitions", "count"),
    ("corpus.build_correlation_graph.rows_truncated", "count"),
    ("corpus.read_items_jsonl.s", "s"),
    ("corpus.read_sequences_tsv.s", "s"),
    ("corpus.build_corpus.s", "s"),
    ("corpus.save_corpus.s", "s"),
    ("corpus.load_corpus.s", "s"),
    ("corpus.load_corpus.calls", "count"),
    ("binio.read_block.s", "s"),
    ("binio.read_block.bytes", "bytes"),
    ("binio.write_block.s", "s"),
    ("binio.write_block.bytes", "bytes"),
    ("store.init_model_state.s", "s"),
    ("store.save_model.s", "s"),
    ("store.load_model.s", "s"),
    ("store.warm_start_extend.s", "s"),
    ("sl_trainer.SLTrainer.init.s", "s"),
    ("sl_trainer.SLTrainer.sweep.s", "s"),
    ("sl_trainer.SLTrainer.sweep.us_per_row", "us"),
    ("sl_trainer.SLTrainer.refresh.s", "s"),
    ("sl_trainer.update_row.V.us", "us"),
    ("sl_trainer.update_row.U.us", "us"),
    ("sl_trainer.update_row.W.us", "us"),
    ("sl_trainer.sl_loss_efficient.s", "s"),
    ("sl_trainer.sl_loss_efficient.calls", "count"),
    ("sl_trainer.solve_fallbacks", "count"),
    ("encoder.encode_bow.us", "us"),
    ("retrieval.retrieve_topk.us", "us"),
    ("retrieval.retrieve_topk.calls", "count"),
    ("retrieval.retrieve_topk.items_scanned", "count"),
    ("retrieval.retrieve_topk.bytes_computed", "bytes"),
    ("retrieval.ensemble_interleave.s", "s"),
    ("evaluation.reconstruction_recall.s", "s"),
    ("evaluation.recall_at_k.s", "s"),
    ("evaluation.pooled_recall.s", "s"),
    ("evaluation.ensemble_recall_at_k.s", "s"),
    ("evaluation.skipped", "count"),
    ("cli.main.ingest.s", "s"),
    ("cli.main.train.s", "s"),
    ("cli.main.retrieve.s", "s"),
    ("cli.main.eval.s", "s"),
    ("cli.main.refresh.s", "s"),
    ("corpus.self_s", "s"),
    ("binio.self_s", "s"),
    ("store.self_s", "s"),
    ("sl_trainer.self_s", "s"),
    ("encoder.self_s", "s"),
    ("retrieval.self_s", "s"),
    ("evaluation.self_s", "s"),
    ("cli.self_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.spans", "count"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        # Every per-layer number is time, bytes or a count of work, skips or
        # fallbacks, so less is better throughout.
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }
