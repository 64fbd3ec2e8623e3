"""Radial coupled k-Hessian systems on the unit ball.

Solvers, cone diagnostics, explicit bound constants, and end-to-end
verification for cyclically coupled Hessian-type boundary value problems
under radial symmetry.
"""

from . import analysis, core, operators, solver, verify
from .core import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {name for module in (core, operators, analysis, solver, verify) for name in module.__all__}
)
