"""skillmix: latent-skill modular multitask learning on planted benchmarks.

Tasks select subsets of skills through a learned relaxed-binary allocation
matrix; skill parameters are composed into per-task networks and trained
end-to-end with two-speed learning rates and an optional buffet-process
prior. A synthetic benchmark with planted skills makes the learned
allocation directly scoreable against ground truth.
"""

from .allocation import (
    AllocationLogits,
    BinaryAllocation,
    RelaxedAllocation,
    expected_allocation,
    gumbel_sigmoid_sample,
    harden,
    init_logits,
    metric_discreteness,
    metric_sparsity,
    metric_usage,
    normalize_rows,
)
from .autodiff import Tensor, backward, grad_check, no_grad, reset_tape
from .baselines import (
    HyperNet,
    allocation_expert,
    hypernet_generate,
    param_count_hypernet,
)
from .config import ExperimentConfig, WorldConfig, parse_config, parse_config_dict
from .experiment import emit_plot_data, export_hierarchy, run_compare, run_experiment, run_sweep
from .priors import ibp_log_prob, ibp_regularizer, relaxed_ibp_log_prob
from .recovery import skill_recovery_score
from .skills import (
    DenseSkills,
    LowRankSkills,
    param_count_lora,
    select_sparse_mask,
)
from .synthetic import SyntheticWorld, TaskSpec, generate_synthetic_benchmark
from .trainer import evaluate, few_shot_adapt, multitask_train, steps_to_threshold

__version__ = "0.1.0"
