"""Zero-shot semantic retrieval from item-item correlation graphs."""

from .corpus import (
    CorrelationGraph,
    Corpus,
    Rows,
    TrainingWeights,
    build_correlation_graph,
    build_corpus,
    compute_training_weights,
    ingest_corpus,
    load_corpus,
    save_corpus,
)
from .encoder import encode_bow, rescale_item_norms
from .evaluation import (
    LabeledSet,
    ensemble_recall_at_k,
    pooled_recall,
    recall_at_k,
    reconstruction_recall,
)
from .retrieval import RankedList, ensemble_interleave, retrieve_topk, search
from .sl_trainer import (
    SLTrainer,
    sl_loss_bruteforce,
    sl_loss_efficient,
    train_sl_model,
)
from .smc import SMCConfig, ce_loss_exact, train_smc
from .store import (
    SMC,
    STL,
    ZSL_ME,
    ZSL_TE,
    ModelState,
    TrainConfig,
    init_model_state,
    load_model,
    save_model,
    warm_start_extend,
)
from .synthetic import ClusterSpec, make_synthetic_transfer_corpus

__version__ = "0.1.0"
