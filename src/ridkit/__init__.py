"""Robust inverse design toolkit.

Learns a conditional generative model of design parameters from noisy
datasets, down-weighting unpredictable samples via cross-validated forward
prediction error, and scores generated designs by re-simulation on
stochastic benchmark tasks.
"""

from . import backend
from .autodiff import (
    Graph,
    GraphBuilder,
    evaluate,
    finite_diff_check,
    gradients,
    value_and_gradients,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    decomposition_check,
    mc_expected_loss,
    resimulation_error,
    target_agnostic_robustness,
    welch_t_test,
)
from .flow import (
    CouplingBlock,
    FlowModel,
    WnllConfig,
    build_flow,
    coupling_forward,
    coupling_inverse,
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
    mse_loss,
    train_regressor,
)
from .seeding import derive_seed
from .tasks import (
    Dataset,
    NoiseSpec,
    TaskSpec,
    apply_noise,
    apply_noise_batch,
    ballistics_forward,
    clusters_forward,
    generate_dataset,
    kinematics_forward,
    make_task,
    prior_sample,
    radian_forward,
    radius_forward,
    task_forward,
)
from .weights import (
    RobustnessEstimate,
    WeightConfig,
    WeightVector,
    estimate_sample_robustness,
    kfold_split,
    robustness_to_weights,
)

__version__ = "0.1.0"
