"""Output checks run after every benchmark operation.

Each check takes parsed CLI outputs and returns a list of problems; an empty
list means the output is correct.  A failed check counts the operation as
failed, like a nonzero exit code.
"""

from __future__ import annotations

import csv
import math

# A Riccati control must get these verdicts on the lq family.
OPTIMAL_VERDICTS = {False: "necessary-holds", True: "sufficient-near-optimal"}

ADMISSIBLE_TOL = 1e-12


def expected_verdict(cert: dict, *, sufficient: bool, C: float, lam: float) -> str:
    """The verdict recomputed from the certificate's gap, stderr and epsilon
    and the benchmark's own C and lambda."""
    gap, stderr, epsilon = cert["gap"], cert["gap_stderr"], cert["epsilon"]
    if not sufficient:
        threshold = -C * math.sqrt(epsilon) - 3.0 * stderr
        return "necessary-holds" if gap >= threshold else "necessary-violated"
    threshold = -C * epsilon**lam - 3.0 * stderr
    convex = cert["provenance"]["convexity"]["passed"]
    return "sufficient-near-optimal" if convex and gap >= threshold else "inconclusive"


def certificate_problems(cert: dict, *, sufficient: bool, C: float, lam: float) -> list[str]:
    problems = []
    if not cert["gap"] <= 0.0:
        problems.append(f"minimal gap {cert['gap']!r} is positive")
    expected = expected_verdict(cert, sufficient=sufficient, C=C, lam=lam)
    if cert["verdict"] != expected:
        problems.append(f"verdict {cert['verdict']!r}, recomputed {expected!r}")
    return problems


def optimal_verdict_problems(cert: dict, *, sufficient: bool) -> list[str]:
    want = OPTIMAL_VERDICTS[sufficient]
    if cert["verdict"] != want:
        return [f"optimal control got verdict {cert['verdict']!r}, expected {want!r}"]
    return []


def agreement_problems(cert: dict, reference: dict, sigmas: float = 4.0) -> list[str]:
    """Gaps from two seeds must agree within ``sigmas`` combined stderr."""
    diff = abs(cert["gap"] - reference["gap"])
    limit = sigmas * math.hypot(cert["gap_stderr"], reference["gap_stderr"])
    if not diff <= limit:
        return [f"gap {cert['gap']!r} differs from {reference['gap']!r} by {diff:.3g} > {limit:.3g}"]
    return []


def solve_problems(
    rows: list[dict], summary: dict, control: list[list[float]], *, steps: int, lower: float, upper: float
) -> list[str]:
    """trace.csv rows, solve_summary.json and final_control.csv of one solve."""
    problems = []
    for before, after in zip(rows, rows[1:]):
        limit = 3.0 * math.hypot(before["cost_stderr"], after["cost_stderr"])
        if not after["cost"] <= before["cost"] + limit:
            problems.append(
                f"cost rose from {before['cost']!r} to {after['cost']!r} at iteration "
                f"{after['iteration']:.0f}, more than 3 combined stderr"
            )
    if not rows:
        problems.append("trace.csv has no rows")
    elif not rows[-1]["cost"] <= rows[0]["cost"]:
        problems.append(f"final cost {rows[-1]['cost']!r} exceeds initial cost {rows[0]['cost']!r}")
    if not summary["final_min_gap"] <= 0.0:
        problems.append(f"final minimal gap {summary['final_min_gap']!r} is positive")
    if len(control) != steps:
        problems.append(f"final control has {len(control)} steps, expected {steps}")
    for i, values in enumerate(control):
        if not all(lower - ADMISSIBLE_TOL <= v <= upper + ADMISSIBLE_TOL for v in values):
            problems.append(f"final control leaves [{lower}, {upper}] at step {i}: {values}")
            break
    return problems


def read_trace_csv(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(handle)]


def read_control_csv(path: str) -> list[list[float]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [[float(v) for v in row[1:]] for row in reader]
