"""Robust inverse design toolkit.

Learns a conditional generative model of design parameters from noisy
datasets, down-weighting unpredictable samples via cross-validated forward
prediction error, and scores generated designs by re-simulation on
stochastic benchmark tasks.
"""

from . import backend
from .evaluation import (
    EvalConfig,
    resimulation_error,
    welch_t_test,
)
from .flow import (
    CouplingBlock,
    FlowModel,
    WnllConfig,
    build_flow,
    flow_forward,
    flow_log_prob,
    flow_sample,
    train_flow_wnll,
)
from .neural import (
    MlpParams,
    MlpSpec,
    init_mlp,
    mlp_forward,
    train_regressor,
    with_bias_column,
)
from .seeding import derive_seed
from .tasks import (
    Dataset,
    NoiseSpec,
    TaskSpec,
    apply_noise_batch,
    generate_dataset,
    make_task,
    prior_sample,
    task_forward,
)
from .weights import (
    WeightConfig,
    estimate_sample_robustness,
    kfold_split,
    robustness_to_weights,
)

__version__ = "0.1.0"
