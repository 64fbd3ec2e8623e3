"""Closed-form references and system transforms that only the tests use.

Each helper here states an exact answer or an exact rewrite of a system
that a test compares the package's numerics against; no scenario needs
them, so they live beside the tests rather than in the package.
"""

from __future__ import annotations

import math

from hessball import GridFunction, NonlinearitySpec, SystemSpec, grid_points
from hessball.core import _power_exponents
from hessball.solver import _check_multipliers


def constant_forcing_solution(N: int, k: int, M: int) -> GridFunction:
    """Exact operator output for unit constant forcing: a scaled 1 - t^2."""
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    t = grid_points(M)
    amplitude = (k / (N * math.comb(N - 1, k - 1))) ** (1.0 / k)
    return GridFunction(amplitude * (1.0 - t * t) / 2.0)


def lambda_scaled_system(spec: SystemSpec, lam: tuple[float, ...]) -> SystemSpec:
    """The same system with every coefficient of equation j scaled by lambda_j."""
    _power_exponents(spec, "lambda_scaled_system")
    _check_multipliers(spec, lam)
    return SystemSpec(
        spec.N,
        spec.k,
        tuple(
            NonlinearitySpec(tuple((float(l) * c, p, g) for c, p, g in f.terms))
            for l, f in zip(lam, spec.f)
        ),
    )
