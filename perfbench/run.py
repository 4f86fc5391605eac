"""Pipeline benchmark for skillmix: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload default_run --seed 0 --seconds 10 --trace 0

Run from the repository root. One operation is one pipeline call from a
config file (`parse_config`, then `run_experiment` or `run_compare`). The
run repeats operations until `--seconds` have passed, and at least twice so
that repeats of one seed can be compared byte for byte. Every operation's
output is checked (see checks.py); an operation fails on a failure marker,
an exception or a failed check.

--trace 0 prints the end-to-end metrics: the mean wall time of an
operation that passed its checks, the median of 15 set-up times of a fresh
process up to a parsed config (sampled between operations), and the peak
resident memory. --trace 1 alternates untraced and traced
operations and prints the per-layer metrics derived from the spans (see
spans.py), which it also writes to .perfbench_out/.

BLAS is pinned to one thread, before numpy is first imported.
"""

import os

BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import CheckFailed, check_group_table, check_repeat, check_run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import COMPARE_KINDS, WORKLOADS, config_doc, run_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
SETUP_PER_ROUND = 3

# Timed from before the fresh interpreter starts to after the config is parsed;
# time.monotonic is one system-wide clock, so parent and child readings compare.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import skillmix
from skillmix.config import parse_config
parse_config(sys.argv[2])
print(time.monotonic())
"""


def import_program() -> None:
    """Import skillmix from this checkout's src/ only; exit without a result otherwise."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import skillmix
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import skillmix from {SRC}: {exc}")
    if SRC not in Path(skillmix.__file__).resolve().parents:
        raise SystemExit(f"perfbench: skillmix was imported from {skillmix.__file__}, not {SRC}")


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Seconds from a fresh process to a parsed config, once per repeat."""
    times = []
    for _ in range(repeats):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - started)
    return times


@contextmanager
def capture_trained(into: list):
    """Keep every TrainedModel that run_experiment gets from multitask_train."""
    from skillmix import experiment

    original = experiment.multitask_train

    def capture(*args, **kwargs):
        trained = original(*args, **kwargs)
        into.append(trained)
        return trained

    experiment.multitask_train = capture
    try:
        yield
    finally:
        experiment.multitask_train = original


def check_op(workload: str, op_root: Path, records, captured, reference) -> list[bytes]:
    """Run every check on one operation; returns its summary bytes."""
    markers = [record.failure for record in records if record.failure]
    if markers:
        raise RuntimeError(f"failure marker: {markers}")
    for record in records:
        trained = next((t for t in captured if t.config == record.config), None)
        if trained is None:
            raise CheckFailed(f"{record.run_dir.name}: no trained model was returned")
        check_run(record.run_dir, trained)
    if workload == "kinds_compare":
        check_group_table(op_root, COMPARE_KINDS)
    summaries = [(r.run_dir / "summary.json").read_bytes() for r in records]
    if reference is not None:
        if len(reference) != len(summaries):
            raise CheckFailed("a repeat produced a different number of runs")
        for record, first, again in zip(records, reference, summaries):
            check_repeat(first, again, record.run_dir.name)
    return summaries


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import_program()
    base = OUT / f"{workload}-s{seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config_doc(workload, seed, tiny), indent=2) + "\n")

    tracer = Tracer() if trace else None
    # One round is one untraced operation, plus one traced when tracing.
    schedule = (False, True) if trace else (False,)
    min_rounds = 1 if trace else 2
    walls: dict[bool, list[float]] = {False: [], True: []}
    setup_times: list[float] = []
    traced_bytes: list[int] = []
    attempted = failed = rounds = 0
    correct = True
    reference = None
    started = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        for traced in schedule:
            op_root = base / f"op{attempted}"
            captured: list = []
            attempted += 1
            try:
                with capture_trained(captured):
                    if traced:
                        tracer.run_id = attempted - 1
                        tracer.install()
                    try:
                        result = run_op(workload, config_path, op_root)
                    finally:
                        if traced:
                            tracer.uninstall()
                summaries = check_op(workload, op_root, result.records, captured, reference)
                reference = reference or summaries
                walls[traced].append(result.wall_s)
            except CheckFailed as exc:
                print(f"perfbench: check failed in {op_root.name}: {exc}", file=sys.stderr)
                failed += 1
                correct = False
                continue
            except Exception:  # one failed operation; the run goes on
                traceback.print_exc()
                failed += 1
                continue
            if traced:
                traced_bytes.append(_tree_bytes(op_root))
            shutil.rmtree(op_root)
        rounds += 1
        if not trace:
            # Set-up is sampled between rounds, so that its samples spread over
            # the run like the operations do; the samples do not use up --seconds.
            paused = time.perf_counter()
            repeats = min(SETUP_PER_ROUND, SETUP_REPEATS - len(setup_times))
            setup_times += measure_setup(config_path, repeats)
            started += time.perf_counter() - paused

    print(
        f"perfbench: workload={workload} seed={seed} ops={attempted} failed={failed} "
        f"walls={walls[False]} traced_walls={walls[True]} blas={BLAS_THREADS}",
        file=sys.stderr,
    )
    if trace:
        spans_path = OUT / f"spans-{workload}-s{seed}.csv"
        tracer.write(spans_path)
        if tracer.missing:
            print(f"perfbench: not traced, missing: {tracer.missing}", file=sys.stderr)
        overhead = (
            statistics.fmean(walls[True]) - statistics.fmean(walls[False])
            if walls[True] and walls[False]
            else 0.0
        )
        metrics = layer_metrics(
            tracer,
            len(walls[True]),
            statistics.median(traced_bytes) if traced_bytes else 0,
            overhead,
        )
        print(f"perfbench: spans written to {spans_path}", file=sys.stderr)
    else:
        setup_times += measure_setup(config_path, SETUP_REPEATS - len(setup_times))
        metrics = {
            # The mean, not the median: on a shared host the CPU speed swings
            # broadly within seconds, and the mean over all operations averages that best.
            "wall_s": {"value": statistics.fmean(walls[False]) if walls[False] else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
