"""Numeric tolerances threaded through the pipeline.

All decision points that are exact in real arithmetic (normalization, zero
derivatives, sign checks, eigenvalue coincidences) need explicit slack in
floating point.  Every module takes a ``ToleranceConfig`` and defaults to
``DEFAULT_TOL``; nothing reads global state.
"""

from dataclasses import dataclass, fields, replace
from numbers import Real


@dataclass(frozen=True)
class ToleranceConfig:
    # vector sums that must equal 1
    alpha_sum: float = 1e-9
    # eigenvalue clustering, relative to the matrix infinity norm
    eig_cluster_rel: float = 1e-6
    # spectral terms whose coefficients all fall below this times the largest
    # coefficient are treated as absent from the density
    coeff_zero_rel: float = 1e-9
    # zero-derivative threshold at x = 0, relative to max|eta|^(k+1)
    deriv_zero_rel: float = 1e-9
    # clamp window for tail-extension vector entries, relative to ||gamma||_1
    markov_slack_rel: float = 1e-12
    # default relative tolerance for density/moment equivalence verdicts
    equivalence_rel: float = 1e-7
    # nonsingularity floor: smallest singular value relative to the largest
    singular_rel: float = 1e-13
    # feedback-Erlang block: target eigenvalue containment
    fe_eig_check: float = 1e-8
    # positive-density grid check
    pos_grid_points: int = 2000
    pos_delta_rel: float = 1e-3
    pos_span: float = 30.0
    # infimum of the density on [0, tau] is shrunk by this safety factor
    eps2_safety: float = 0.9
    # doubling searches (rate selection, tau selection) give up after this many
    max_doublings: int = 60

    def __post_init__(self):
        # a zero, negative or NaN tolerance breaks a check or switches it off
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, Real) and 0 < v < float("inf") and (f.type is float or v == int(v))):
                raise ValueError(
                    f"tolerance '{f.name}' must be a finite {f.type.__name__} > 0, got {v!r}")

    def replace(self, **changes) -> "ToleranceConfig":
        return replace(self, **changes)


DEFAULT_TOL = ToleranceConfig()
