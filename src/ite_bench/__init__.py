"""Semi-synthetic benchmark and representation models for individual
treatment effect estimation with embedding-valued treatments."""

from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    NumericError,
    ShapeError,
    TrainingDiverged,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    SweepSpec,
    run_experiment,
    run_sweep,
)
from .metrics import (
    EvalReport,
    evaluate_model,
    ite_matrix,
    pair_mean,
    pehe,
)
from .mmd import treatment_regularization_loss
from .model import (
    Batch,
    ModelShape,
    OutcomeModel,
    TrainConfig,
    TrainedModel,
    batch_loss,
    build_model,
    load_checkpoint,
    predict_all_outcomes,
    save_checkpoint,
    train,
)
from .nn import (
    mlp_backward,
    mlp_forward,
    sgd_step,
)
from .simulate import (
    Dataset,
    SimConfig,
    assign_treatments,
    expected_outcomes,
    generate_covariates,
    kmeans,
    load_dataset,
    potential_outcomes,
    sample_outcome_params,
    save_dataset,
    select_centroids,
    simulate_dataset,
)

__version__ = "0.1.0"
