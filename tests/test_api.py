"""The package's public names and their parameters, pinned so that an addition
or removal shows in a diff."""
import inspect
import types

import zsretrieval

PUBLIC = [
    "ClusterSpec",
    "Corpus",
    "CorrelationGraph",
    "LabeledSet",
    "ModelState",
    "RankedList",
    "Rows",
    "SLTrainer",
    "SMC",
    "SMCConfig",
    "STL",
    "TrainConfig",
    "TrainingWeights",
    "ZSL_ME",
    "ZSL_TE",
    "build_corpus",
    "build_correlation_graph",
    "ce_loss_exact",
    "compute_training_weights",
    "encode_bow",
    "ensemble_interleave",
    "ensemble_recall_at_k",
    "ingest_corpus",
    "init_model_state",
    "load_corpus",
    "load_model",
    "make_synthetic_transfer_corpus",
    "pooled_recall",
    "recall_at_k",
    "reconstruction_recall",
    "rescale_item_norms",
    "retrieve_topk",
    "save_corpus",
    "save_model",
    "search",
    "sl_loss_bruteforce",
    "sl_loss_efficient",
    "train_sl_model",
    "train_smc",
    "warm_start_extend",
]

# Per exported callable: each parameter as name or name=repr(default), with its
# kind in parentheses unless it is positional-or-keyword.
PARAMETERS = {
    "ClusterSpec": [
        "n_pairs=2", "n_clusters=2", "background_words=2", "background_repeats=1",
        "text_repeats=2", "max_neighbors=250",
    ],
    "Corpus": ["item_ids", "vocab", "word_lists", "graph", "stats=<factory>"],
    "CorrelationGraph": ["neighbors", "counts", "max_neighbors"],
    "LabeledSet": ["queries"],
    "ModelState": [
        "kind", "d", "W", "V", "U", "seed", "sweep_count=0", "score_mode='cosine'",
        "objective=None", "ids_sha256=None",
    ],
    "RankedList": ["items", "scores", "k", "score_mode"],
    "Rows": ["indptr", "values"],
    "SLTrainer": ["state", "corpus", "config"],
    "SMCConfig": [
        "d=200", "negatives=100", "batch_size=128", "learning_rate=0.06", "steps=1000", "seed=0",
        "sampling='uniform'", "init_std=0.1",
    ],
    "TrainConfig": [
        "kind='zsl_te'", "d=200", "omega0=0.001", "lam=4.0", "sweeps=10", "seed=0", "init_std=0.1",
        "use_weights=True", "weight_negatives=True", "exclude_self_negative=False",
        "task1_encoded=False",
    ],
    "TrainingWeights": ["row", "col"],
    "build_corpus": ["item_text", "min_word_count=0"],
    "build_correlation_graph": [
        "sequences", "n_items", "max_neighbors", "window=1", "symmetrize=False",
    ],
    "ce_loss_exact": ["state", "pairs", "max_items=50000"],
    "compute_training_weights": ["graph"],
    "encode_bow": ["word_indices", "W"],
    "ensemble_interleave": ["primary", "secondary", "head_len"],
    "ensemble_recall_at_k": ["primary", "secondary", "pairs", "K", "head_len=None"],
    "ingest_corpus": [
        "item_text", "sequences", "min_item_count=0", "min_word_count=0", "max_neighbors=250",
        "window=1", "symmetrize=False",
    ],
    "init_model_state": ["config", "corpus"],
    "load_corpus": ["directory"],
    "load_model": ["directory"],
    "make_synthetic_transfer_corpus": ["seed", "n_items", "spec"],
    "pooled_recall": ["state", "labeled", "mode='cosine'"],
    "recall_at_k": ["state", "pairs", "K", "mode='dot'", "lengths=None"],
    "reconstruction_recall": ["state", "graph", "mode='cosine'"],
    "rescale_item_norms": ["target", "source"],
    "retrieve_topk": ["q", "V", "k", "mode='dot'"],
    "save_corpus": ["corpus", "directory"],
    "save_model": ["state", "directory", "corpus"],
    "search": ["queries", "W", "V", "k", "mode='dot'"],
    "sl_loss_bruteforce": ["state", "corpus", "config", "max_terms=50000"],
    "sl_loss_efficient": ["state", "corpus", "config", "parts=None"],
    "train_sl_model": ["corpus", "config", "state=None"],
    "train_smc": ["pairs", "corpus", "config"],
    "warm_start_extend": [
        "state", "old_corpus", "new_corpus", "sub_seed=None", "prune=False", "init_std=0.1",
    ],
}


def test_public_names_are_pinned():
    # Submodules are attributes of the package once anything imports them,
    # so they are left out; the names re-exported by __init__ are the API.
    exported = sorted(name for name, value in vars(zsretrieval).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC


def _parameters(fn) -> list[str]:
    out = []
    for p in inspect.signature(fn).parameters.values():
        text = p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        out.append(text if p.kind is p.POSITIONAL_OR_KEYWORD else f"{text} ({p.kind.description})")
    return out


def test_public_parameters_are_pinned():
    callables = [name for name in PUBLIC if callable(getattr(zsretrieval, name))]
    assert sorted(PARAMETERS) == callables
    for name in callables:
        assert _parameters(getattr(zsretrieval, name)) == PARAMETERS[name], name


def test_sequences_are_rows_of_item_indices():
    # Consumption sequences go from the file to the graph as one CSR block.
    for fn in (zsretrieval.ingest_corpus, zsretrieval.build_correlation_graph):
        assert inspect.signature(fn).parameters["sequences"].annotation == "Rows", fn
    assert _parameters(zsretrieval.corpus.read_sequences_tsv) == ["path", "item_index"]
