"""The package's public names, pinned so that an addition or removal shows in a diff."""
import types

import zsretrieval

PUBLIC = [
    "ClusterSpec",
    "Corpus",
    "CorrelationGraph",
    "LabeledSet",
    "ModelState",
    "QueryVector",
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


def test_public_names_are_pinned():
    # Submodules are attributes of the package once anything imports them,
    # so they are left out; the names re-exported by __init__ are the API.
    exported = sorted(name for name, value in vars(zsretrieval).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC
