"""Command-line entry points.

Exit codes: 0 success, 1 configuration error, 2 run failure.

`sweep` runs `run_grid` over its `--grid FIELD=V1,V2,...` axes (any config
field, `seed` or `world.*`) and writes one status table, compare_table.csv.

The pipeline modules (and with them numpy and scipy) are imported only
after the arguments and the config have parsed, so `--help` and a bad
config answer without loading them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from pathlib import Path

from .config import parse_config
from .errors import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillmix",
        description="Latent-skill multitask experiments on planted synthetic benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config", type=Path)
    run.add_argument("--no-overwrite", action="store_true")

    sweep = sub.add_parser("sweep", help="run one experiment per point of a grid over config fields")
    sweep.add_argument("config", type=Path)
    sweep.add_argument("--grid", action="append", required=True, metavar="FIELD=V1,V2,...",
                       help="a config field (model_kind, seed, world.examples_per_task, ...) and its JSON or "
                       "string values; repeat for a cartesian product")
    sweep.add_argument("--no-overwrite", action="store_true")

    hier = sub.add_parser("export-hierarchy", help="group tasks by identical allocation rows")
    hier.add_argument("allocation", type=Path, help="allocation_layer_*.json from a run")
    hier.add_argument("--out", type=Path, default=None)

    plots = sub.add_parser("emit-plots", help="emit tidy CSVs from run directories")
    plots.add_argument("run_dirs", nargs="+", type=Path)
    plots.add_argument("--out", type=Path, default=Path("plot_data"))
    return parser


def _parse_axes(specs: list[str]) -> dict[str, list]:
    """`run_grid`'s axes from `FIELD=V1,V2,...` specs; a value is JSON (`2`, `0.5`, `null`) or else a string."""
    axes: dict[str, list] = {}
    for spec in specs:
        field, eq, body = spec.partition("=")
        if not (field and eq):
            raise ConfigError("--grid", f"'{spec}' is not FIELD=V1,V2,...")
        if field in axes:
            raise ConfigError("--grid", f"names {field} twice")
        axes[field] = [_grid_value(text) for text in body.split(",")] if body else []
    return axes


def _grid_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    from .experiment import run_experiment

    record = run_experiment(config, overwrite=not args.no_overwrite)
    if record.failure is not None:
        print(f"run failed at stage {record.failure['stage']}: {record.failure['error']}", file=sys.stderr)
        return EXIT_RUN
    print(record.run_dir)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = parse_config(args.config)
    axes = _parse_axes(args.grid)
    from .experiment import run_grid

    # `run_grid` checks every point before the first run.
    records = run_grid(config, axes, overwrite=not args.no_overwrite)
    for r in records:  # one line per run, named by its point, e.g. `model_kind=shared seed=1`
        point = " ".join(f"{field}={reduce(getattr, field.split('.'), r.config)}" for field in axes)
        status = "ok" if r.failure is None else f"FAILED ({r.failure['stage']})"
        print(f"{point}: {r.run_dir} {status}")
    return EXIT_RUN if any(r.failure is not None for r in records) else EXIT_OK


def _cmd_export_hierarchy(args) -> int:
    import numpy as np
    from scipy.special import expit

    from .allocation import harden
    from .experiment import export_hierarchy, render_hierarchy_text

    doc = json.loads(args.allocation.read_text())
    if doc.get("logits") is not None:
        matrix = harden(expit(np.asarray(doc["logits"], dtype=np.float64)))
    else:
        matrix = doc["matrix"]
    groups = export_hierarchy(matrix, doc["tasks"])
    text = render_hierarchy_text(groups)
    if args.out:
        args.out.write_text(json.dumps(groups, indent=2, sort_keys=True) + "\n")
        print(args.out)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_emit_plots(args) -> int:
    for run in args.run_dirs:
        path = run / "summary.json"
        if not path.exists():
            print(f"{run} has no summary.json", file=sys.stderr)
            return EXIT_RUN
        failure = json.loads(path.read_text()).get("failure")
        if failure is not None:
            print(f"{run} failed at stage {failure['stage']}; emit-plots takes runs that did not fail", file=sys.stderr)
            return EXIT_RUN
    from .experiment import emit_plot_data

    curves, sweep = emit_plot_data(args.run_dirs, args.out)
    print(curves)
    print(sweep)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "export-hierarchy": _cmd_export_hierarchy,
        "emit-plots": _cmd_emit_plots,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
