"""The one numeric tolerance a caller can set.

A representation's vector must sum to 1, and in floating point that needs
slack: ``alpha_sum``.  It belongs to the input: ``MERep(alpha, A, tol=...)``
checks its vector against it, and defaults to ``DEFAULT_TOL``.  Nothing
downstream reads it: ``convert`` rescales a vector that a looser slack let
through to unit mass, and every ``PHRep`` holds its mass to ``DEFAULT_TOL``.
Every other decision point that is exact in real arithmetic (zero
derivatives, sign checks, eigenvalue coincidences) has a fixed slack, a
named constant in the module that reads it.
"""

from dataclasses import dataclass
from numbers import Real
from typing import ClassVar


@dataclass(frozen=True)
class ToleranceConfig:
    # vector sums that must equal 1
    alpha_sum: float = 1e-9
    # relative tolerance of density/moment equivalence verdicts; not settable
    equivalence_rel: ClassVar[float] = 1e-7

    def __post_init__(self):
        # a zero, negative or NaN tolerance breaks a check or switches it off
        v = self.alpha_sum
        if not (isinstance(v, Real) and 0 < v < float("inf")):
            raise ValueError(f"tolerance 'alpha_sum' must be a finite float > 0, got {v!r}")


DEFAULT_TOL = ToleranceConfig()
