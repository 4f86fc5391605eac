"""The float tolerance, fixed before any change used it, and the comparator that applies it.

A change that keeps every random draw and only reorders floating-point sums
moves results by a few ulps. Such a change is checked here rather than
byte for byte: two `summary.json` documents must agree key by key, every
value that is not a float exactly and every float within `FLOAT_RTOL`
relative; two arrays must have one shape and agree within `FLOAT_RTOL`
times their largest magnitude. A reordered sum drifted at most 3.5e-16
relative on the goldens, and a change that alters a draw moves results by
far more than 1e-12, so the bound tells the two apart.
"""

import math

import numpy as np

FLOAT_RTOL = 1e-12


def relative_change(old: float, new: float) -> float:
    """|new - old| over the larger magnitude; 0.0 for equal values, inf for unequal ones not both finite (NaN never equals)."""
    if old == new:
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def _walk(old, new, path: str):
    """(path, relative change) for every pair of floats, and (path, None) for every other difference."""
    if isinstance(old, float) and isinstance(new, float):
        yield path, relative_change(old, new)
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in old and key in new:
                yield from _walk(old[key], new[key], f"{path}/{key}")
            else:
                yield f"{path}/{key}", None
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _walk(a, b, f"{path}/{i}")
    elif type(old) is not type(new) or old != new:
        yield path, None


def summary_drift(old, new) -> tuple[int, float, list[str]]:
    """How many floats changed, their largest relative change, and the paths of every other difference."""
    changes = list(_walk(old, new, ""))
    moved = [change for _, change in changes if change]
    return len(moved), max(moved, default=0.0), [path for path, change in changes if change is None]


def summary_mismatches(old, new) -> list[str]:
    """Every path at which `new` leaves the tolerance of `old`; empty when the two agree."""
    return [
        f"{path or '/'}: " + ("differs" if change is None else f"relative change {change:.3g}")
        for path, change in _walk(old, new, "")
        if change is None or change > FLOAT_RTOL
    ]


def assert_arrays_close(actual, expected) -> None:
    """One shape, and every entry within FLOAT_RTOL times the larger of the two arrays' largest magnitudes."""
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, f"shape {actual.shape} != {expected.shape}"
    scale = max(np.abs(actual).max(initial=0.0), np.abs(expected).max(initial=0.0))
    error = np.abs(actual - expected).max(initial=0.0)
    assert error <= FLOAT_RTOL * scale, f"largest difference {error:.3g} exceeds {FLOAT_RTOL:g} x {scale:.3g}"
