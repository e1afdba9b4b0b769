"""Domain-transfer multi-instance learning.

Bags of instance vectors are embedded against learned dictionaries (max dot
product per codeword) and classified linearly; a source-domain model is
adapted to a target domain by jointly learning a transfer dictionary and
adaptation weights through alternating dual maximization and per-codeword
gradient descent.
"""

from .core import (
    AdaptedModel,
    Bag,
    BagBatch,
    Dictionary,
    Hyperparams,
    SourceModel,
    embed_bag,
    predict,
    primal_objective,
    score_source,
    score_target,
)
from .data import (
    SynthConfig,
    generate_synthetic,
    load_adapted_model,
    load_dataset,
    load_model,
    load_source_model,
    save_dataset,
    save_model,
)
from .errors import (
    DatasetFormatError,
    DegenerateInputError,
    InvalidInputError,
    ModelFormatError,
)
from .evaluate import (
    FoldSplit,
    ProtocolReport,
    accuracy,
    run_protocol,
    split_folds,
    sweep,
)
from .learn import (
    FitReport,
    codeword_gradient,
    codeword_objective,
    fit_dtc,
    init_dictionary,
    train_source,
    update_codeword,
)
from .qp import DualProblem, DualState, dual_value, kkt_residual, recover_w, solve_box_qp

__all__ = [
    "AdaptedModel",
    "Bag",
    "BagBatch",
    "DatasetFormatError",
    "DegenerateInputError",
    "Dictionary",
    "DualProblem",
    "DualState",
    "FitReport",
    "FoldSplit",
    "Hyperparams",
    "InvalidInputError",
    "ModelFormatError",
    "ProtocolReport",
    "SourceModel",
    "SynthConfig",
    "accuracy",
    "codeword_gradient",
    "codeword_objective",
    "dual_value",
    "embed_bag",
    "fit_dtc",
    "generate_synthetic",
    "init_dictionary",
    "kkt_residual",
    "load_adapted_model",
    "load_dataset",
    "load_model",
    "load_source_model",
    "predict",
    "primal_objective",
    "recover_w",
    "run_protocol",
    "save_dataset",
    "save_model",
    "score_source",
    "score_target",
    "solve_box_qp",
    "split_folds",
    "sweep",
    "train_source",
    "update_codeword",
]

__version__ = "0.1.0"
