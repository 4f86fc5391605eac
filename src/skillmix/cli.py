"""Command-line entry points.

Exit codes: 0 success, 1 configuration error, 2 run failure.

The pipeline modules (and with them numpy and scipy) are imported only
after the arguments and the config have parsed, so `--help` and a bad
config answer without loading them.
"""

from __future__ import annotations

import argparse
import json
import sys
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

    sweep = sub.add_parser("sweep", help="run the skill-inventory-size sweep")
    sweep.add_argument("config", type=Path)
    sweep.add_argument("--grid", default="2,4,8,16,32", help="skill counts, e.g. S=2,4,8")
    sweep.add_argument("--no-overwrite", action="store_true")

    compare = sub.add_parser("compare", help="run several model kinds on one world")
    compare.add_argument("config", type=Path)
    compare.add_argument(
        "--kinds", default="skilled,shared,private", help="comma-separated model kinds"
    )
    compare.add_argument("--no-overwrite", action="store_true")

    hier = sub.add_parser("export-hierarchy", help="group tasks by identical allocation rows")
    hier.add_argument("allocation", type=Path, help="allocation_layer_*.json from a run")
    hier.add_argument("--out", type=Path, default=None)

    plots = sub.add_parser("emit-plots", help="emit tidy CSVs from run directories")
    plots.add_argument("run_dirs", nargs="+", type=Path)
    plots.add_argument("--out", type=Path, default=Path("plot_data"))
    return parser


def _parse_grid(spec: str) -> list[int]:
    body = spec.split("=", 1)[1] if "=" in spec else spec
    try:
        return [int(v) for v in body.split(",") if v]
    except ValueError:
        raise ConfigError("--grid", f"could not parse grid '{spec}'") from None


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
    grid = _parse_grid(args.grid)
    from .experiment import run_sweep

    # `run_sweep` checks the grid before the first run; no run's config holds it.
    return _report(run_sweep(config, grid, overwrite=not args.no_overwrite), lambda c: f"S={c.num_skills}")


def _cmd_compare(args) -> int:
    config = parse_config(args.config)
    kinds = [k for k in args.kinds.split(",") if k]
    from .experiment import run_compare

    return _report(run_compare(config, kinds, overwrite=not args.no_overwrite), lambda c: c.model_kind)


def _report(records, label) -> int:
    """One line per run, named by `label(config)`, with its status; EXIT_RUN when any run failed."""
    for r in records:
        status = "ok" if r.failure is None else f"FAILED ({r.failure['stage']})"
        print(f"{label(r.config)}: {r.run_dir} {status}")
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
        "compare": _cmd_compare,
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
