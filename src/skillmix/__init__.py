"""skillmix: latent-skill modular multitask learning on planted benchmarks.

Tasks select subsets of skills through a learned relaxed-binary allocation
matrix; skill parameters are composed into per-task networks and trained
end-to-end with two-speed learning rates and an optional buffet-process
prior. A synthetic benchmark with planted skills makes the learned
allocation directly scoreable against ground truth.
"""

from .config import ExperimentConfig, WorldConfig, parse_config, parse_config_dict
from .experiment import emit_plot_data, export_hierarchy, run_compare, run_experiment, run_sweep
from .synthetic import generate_synthetic_benchmark
from .trainer import evaluate, few_shot_adapt, multitask_train

__version__ = "0.1.0"
