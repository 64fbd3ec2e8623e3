"""Observed convergence order of grid-refinement studies, for the tests.

A study evaluates an error at several grid sizes M and fits the slope of
log(error) against log(spacing), spacing = 1/(M-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

SATURATION_FLOOR = 1e-13


@dataclass(frozen=True)
class ConvergenceReport:
    """Observed order from a grid-refinement study.

    order is the least-squares slope of log(error) against log(spacing);
    NaN when the study saturated at round-off level, in which case the
    operation is exact on the tested family and no order can be observed.
    """

    order: float
    errors: tuple[float, ...]
    spacings: tuple[float, ...]
    saturated: bool


def richardson_order(
    error_fn: Callable[[int], float], Ms: Sequence[int]
) -> ConvergenceReport:
    """Fit the convergence order of error_fn over the given grid sizes."""
    if len(Ms) < 3:
        raise ValueError("need at least 3 grid sizes")
    errors = [abs(float(error_fn(int(M)))) for M in Ms]
    spacings = [1.0 / (int(M) - 1) for M in Ms]
    if max(errors) < SATURATION_FLOOR:
        return ConvergenceReport(
            order=math.nan,
            errors=tuple(errors),
            spacings=tuple(spacings),
            saturated=True,
        )
    safe = [max(e, 1e-300) for e in errors]
    slope = float(np.polyfit(np.log(spacings), np.log(safe), 1)[0])
    return ConvergenceReport(
        order=slope,
        errors=tuple(errors),
        spacings=tuple(spacings),
        saturated=False,
    )
