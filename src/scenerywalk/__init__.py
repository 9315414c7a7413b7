"""Random walks in heavy-tailed random scenery and layered random conductance.

The package generates deterministic Pareto sceneries on Z^d, simulates the
continuous-time walks driven by them, evaluates every tail/displacement
exponent of the model in closed form and through an independent variational
solver, measures chemical distances on the layered conductance graph, and
runs the Monte Carlo verifiers for everything that is checkable at desk
scale.
"""

__version__ = "0.2.0"

from .scenery import SceneryField, ConstantField
from .exponents import ExponentResult

__all__ = [
    "SceneryField",
    "ConstantField",
    "ExponentResult",
    "__version__",
]
