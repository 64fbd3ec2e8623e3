"""Scenario configurations for each benchmark workload, and their checks.

A workload is a fixed cycle of hessball scenario configs.  The benchmark
runs the cycle in order, again and again, so every config is repeated and
its outputs can be compared across repeats.  The benchmark's seed feeds
the configs' ``seed`` keys and the ``solve_verify`` draws.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Principal eigenvalue of the chain with k = (1, 1), gamma = (1, 1) in R^N:
# the squared first Dirichlet eigenvalue of -Δ on the unit ball, j^4 with j
# the first zero of the Bessel function J_{N/2-1}.
LAMBDA0_REF = {3: math.pi**4, 2: 33.44523988202471, 4: 215.5602619361879}
LAMBDA0_RTOL = 1e-3
ADMISSIBILITY_TOL = 1e-5  # hessball.verify's gate on admissibility margins

# Failures the program is known to have on some benchmark inputs (see
# NOTES.md).  A failed run is counted either way; a failure that its case
# does not list as known means the program's output is wrong.
ADMISSIBILITY = "admissibility_below_tolerance"
RESIDUAL = "residual_above_tolerance"
COLLAPSED = "collapsed_to_zero"
NO_CSV = "no_solution_csv"

CRITERION9_TERMS = [[0.1, 0.0, 0.5], [0.1, 0.0, 3.0]]
CRITERION5_SYSTEMS = (
    {"N": 2, "k": [1, 1], "gamma": [1.0, 1.0]},
    {"N": 2, "k": [2, 2], "gamma": [2.0, 2.0]},
    {"N": 3, "k": [1, 2], "gamma": [2.0, 1.0]},
)
RATIO_RANGE = (0.2, 0.95)
# Systems differ several-fold in cost and some fail, so a run needs many
# of them for its totals to vary little from one seed to the next.
SOLVE_VERIFY_SYSTEMS = 256


@dataclass
class Case:
    """One config of the cycle and what its outcome may be."""

    name: str
    config: dict
    known: frozenset = frozenset()  # failure labels expected on this input
    solution_from: str | None = None  # case whose solution_1.csv this verifies
    lambda0: float | None = None  # reference principal eigenvalue


def scan_cases(seed: int) -> list[Case]:
    cases = [
        Case(
            "multiplicity",
            {"scenario": "multiplicity", "N": 2, "k": [1, 1],
             "terms": [CRITERION9_TERMS, CRITERION9_TERMS], "M": 1001, "r0": 1.0,
             "r_min": 1e-4, "r_max": 1e4, "points": 48, "seed": seed},
        ),
        Case(
            "existence",
            {"scenario": "existence", "N": 2, "k": [1, 1], "gamma": [2.0, 2.0],
             "M": 1001, "r_min": 1e-3, "r_max": 1e3, "points": 32, "seed": seed},
            known=frozenset({ADMISSIBILITY}),
        ),
    ]
    for j, system in enumerate(CRITERION5_SYSTEMS, start=1):
        cases.append(
            Case(
                f"nonexistence_{j}",
                {"scenario": "nonexistence", **system, "M": 1001, "points": 32,
                 "seed": seed},
            )
        )
    return cases


def _latin_hypercube(n: int, dims: int, rng: random.Random) -> list[list[float]]:
    """n points in [0, 1)^dims; each axis is cut into n strata, each used once."""
    columns = []
    for _ in range(dims):
        order = list(range(n))
        rng.shuffle(order)
        columns.append([(j + rng.random()) / n for j in order])
    return [list(point) for point in zip(*columns)]


def _system(u: list[float]) -> dict:
    """A sublinear (regime C1) two-equation system from a point of [0, 1)^10.

    The homogeneity ratio is prod(largest exponents) / prod(k).  Half the
    systems get pure powers v^b, the other half two-term forcings
    c1 v^a + c2 t^p v^b with a < b.
    """
    lo, hi = RATIO_RANGE
    N = 2 + int(3 * u[1])
    k = [1 + int(N * u[2]), 1 + int(N * u[3])]
    product = (lo + (hi - lo) * u[0]) * k[0] * k[1]
    w = 0.3 + 0.4 * u[4]
    b = [product**w, product ** (1.0 - w)]
    if u[5] < 0.5:
        return {"N": N, "k": k, "gamma": b}
    shrink = 0.3 + 0.5 * u[6]
    c1, c2, p = 0.5 + 1.5 * u[7], 0.5 + 1.5 * u[8], 2.0 * u[9]
    return {"N": N, "k": k,
            "terms": [[[c1, 0.0, bi * shrink], [c2, p, bi]] for bi in b]}


def solve_verify_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    known = frozenset({RESIDUAL, COLLAPSED, ADMISSIBILITY})
    cases = []
    for j, u in enumerate(_latin_hypercube(SOLVE_VERIFY_SYSTEMS, 10, rng), start=1):
        system = _system(u)
        cases.append(
            Case(
                f"system_{j}_existence",
                {"scenario": "existence", **system, "M": 4001, "seed": seed},
                known=known,
            )
        )
        cases.append(
            Case(
                f"system_{j}_verify",
                {"scenario": "verify", **system, "M": 4001, "seed": seed},
                known=frozenset({NO_CSV}),
                solution_from=f"system_{j}_existence",
            )
        )
    return cases


def fine_grid_cases(seed: int) -> list[Case]:
    return [
        Case(
            f"eigenvalue_N{N}",
            {"scenario": "eigenvalue", "N": N, "k": [1, 1], "gamma": [1.0, 1.0],
             "M": 64001, "tol": 1e-12, "starts": 2, "seed": seed},
            lambda0=LAMBDA0_REF[N],
        )
        for N in (3, 2, 4)
    ]


WORKLOADS = {
    "scan": scan_cases,
    "solve_verify": solve_verify_cases,
    "fine_grid": fine_grid_cases,
}


def read_report(out_dir: Path) -> list[dict]:
    path = out_dir / "report.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def check(case: Case, code: int, records: list[dict], input_missing: bool) -> tuple[str, ...]:
    """Labels of why the run failed; empty when it is right.

    input_missing marks a verify run whose existence run wrote no CSV.
    """
    if code == 0:
        if case.lambda0 is None:
            return ()
        lam = [r["values"]["lambda0"] for r in records if r["kind"] == "eigenvalue"]
        if len(lam) == 1 and abs(lam[0] - case.lambda0) <= LAMBDA0_RTOL * case.lambda0:
            return ()
        return (f"lambda0 {lam} is not within {LAMBDA0_RTOL} of {case.lambda0}",)
    if input_missing:
        return (NO_CSV,)
    for record in records:
        if record["kind"] == "picard" and record["values"]["status"] == COLLAPSED:
            return (COLLAPSED,)
    gates = set()
    for record in records:
        if record["kind"].startswith("verification_") and record["pass"] is False:
            gates |= _failed_gates(record)
    return tuple(sorted(gates)) or (f"exit code {code}",)


def _failed_gates(record: dict) -> set[str]:
    values, tol = record["values"], record["tolerances"]["residual"]
    gates = set()
    if max(values["max_residual"]) > tol:
        gates.add(RESIDUAL)
    if max(values["boundary_errors"]) > tol:
        gates.add("boundary_error_above_tolerance")
    if min(values["admissibility_margins"]) < -ADMISSIBILITY_TOL:
        gates.add(ADMISSIBILITY)
    return gates
