"""skillmix: latent-skill modular multitask learning on planted benchmarks.

Tasks select subsets of skills through a learned relaxed-binary allocation
matrix; skill parameters are composed into per-task networks and trained
end-to-end with two-speed learning rates and an optional buffet-process
prior. A synthetic benchmark with planted skills makes the learned
allocation directly scoreable against ground truth.

Import contract: `import skillmix` and `parse_config` load the package's
`config` and `errors` modules and `json`, and nothing else a bare
interpreter lacks: no numpy or scipy, and no `dataclasses` or `hashlib`
(`config_hash` imports `hashlib` when called). So a fresh process checks
a config in a few milliseconds. The config names are bound at import;
every other public name is looked up in its defining module on first
access (PEP 562) and is that module's attribute itself.
"""

from importlib import import_module

from .config import ExperimentConfig, WorldConfig, parse_config, parse_config_dict

__version__ = "0.1.0"

_LAZY = {
    "run_experiment": "experiment",
    "run_compare": "experiment",
    "run_grid": "experiment",
    "emit_plot_data": "experiment",
    "export_hierarchy": "experiment",
    "generate_synthetic_benchmark": "synthetic",
    "evaluate": "trainer",
    "few_shot_adapt": "trainer",
    "multitask_train": "trainer",
}

__all__ = ["ExperimentConfig", "WorldConfig", "parse_config", "parse_config_dict", *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
