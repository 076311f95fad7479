"""Vector-matrix representations, norms, and density/moment evaluation.

A distribution is described by a row vector ``alpha`` and a square matrix
``A`` through the density ``f(x) = -alpha A exp(A x) 1``.  Entries may be
negative (and, for internal canonical forms, complex in conjugate pairs); the
Markovian subclass is handled by the ``validate`` module.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import InvalidRepresentationError, NumericError

__all__ = [
    "MERep",
    "vec_norm1",
    "mat_norm_inf",
    "pdf_eval",
    "pdf_eval_many",
    "moments",
    "derivatives_at_zero",
]

# nonsingularity floor: smallest singular value relative to the infinity norm
_SINGULAR_REL = 1e-13


def vec_norm1(v) -> float:
    """Sum of absolute entries."""
    return float(np.abs(np.asarray(v)).sum())


def mat_norm_inf(m) -> float:
    """Largest absolute row sum."""
    return float(np.abs(np.asarray(m)).sum(axis=1).max())


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MERep:
    """A (row vector, matrix) pair defining a matrix-exponential distribution.

    Invariants checked at construction: matching shapes, finite entries, the
    vector sums to 1, and the matrix is nonsingular (smallest singular value
    bounded away from zero relative to the infinity norm).
    """

    alpha: np.ndarray
    A: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha))
        A = np.atleast_2d(np.asarray(self.A))
        if not (np.iscomplexobj(alpha) or np.iscomplexobj(A)):
            alpha = alpha.astype(float)
            A = A.astype(float)
        if alpha.ndim != 1 or A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InvalidRepresentationError("MERep: alpha must be 1-D and A square")
        if alpha.shape[0] != A.shape[0]:
            raise InvalidRepresentationError(
                f"MERep: alpha has length {alpha.shape[0]} but A is {A.shape[0]}x{A.shape[1]}"
            )
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(A))):
            raise InvalidRepresentationError("MERep: non-finite entries")
        total = complex(alpha.sum())
        if abs(total - 1.0) > self.tol.alpha_sum:
            raise InvalidRepresentationError(
                f"MERep: alpha must sum to 1, got {total}"
            )
        sv = np.linalg.svd(A, compute_uv=False)
        scale = max(mat_norm_inf(A), 1e-300)
        if sv[-1] <= _SINGULAR_REL * scale:
            raise InvalidRepresentationError(
                f"MERep: A is singular to working precision (smallest sv {sv[-1]:.3e})"
            )
        object.__setattr__(self, "alpha", _as_readonly(alpha))
        object.__setattr__(self, "A", _as_readonly(A))

    @property
    def order(self) -> int:
        return self.alpha.shape[0]

    def is_complex(self) -> bool:
        return np.iscomplexobj(self.alpha) or np.iscomplexobj(self.A)

    @cached_property
    def mean_scale(self) -> float:
        """The unit of time the construction runs in: the power of two ``s``
        with the mean of ``(alpha, s A)`` in ``[1/2, 1)``, so scaling by it is
        exact.  1 when the mean is not positive and finite.  Computed once per
        pair, for the spectral read and the construction alike."""
        mean = float(moment_series(self.alpha, self.A, 1)[1])
        if not 0 < mean < np.inf:
            return 1.0
        return float(np.ldexp(1.0, np.frexp(mean)[1]))


def pdf_eval(rep: MERep, x: float) -> float:
    """Density value ``-alpha A exp(A x) 1`` at a single point ``x >= 0``."""
    return float(pdf_eval_many(rep, [x])[0])


def pdf_eval_many(rep: MERep, xs: Sequence[float]) -> np.ndarray:
    """Density on an array of points, one matrix exponential per point.

    Per-point evaluation keeps full relative accuracy even where the density
    has decayed by hundreds of orders of magnitude, which the sign checks
    depend on.  A value that overflows raises ``NumericError``.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0)
    if not xs.min() >= 0:  # also when a point is NaN
        raise InvalidRepresentationError("pdf_eval_many: grid points must be >= 0")
    lead = -(rep.alpha @ rep.A)
    out = np.empty(xs.shape)
    # an overflow is reported below as one NumericError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(xs.flat):
            out.flat[i] = float(np.real((lead @ expm(rep.A * x)).sum()))
    if not np.all(np.isfinite(out)):
        raise NumericError("pdf_eval_many: matrix exponential overflowed")
    return out


def derivatives_at_zero(rep: MERep, count: int) -> np.ndarray:
    """First ``count`` derivatives of the density at 0: ``f^(k)(0) = -alpha A^(k+1) 1``."""
    ones = np.ones(rep.order, dtype=rep.A.dtype)
    v = rep.A @ ones
    out = np.empty(count)
    for k in range(count):
        out[k] = float(np.real(-(rep.alpha @ v)))
        v = rep.A @ v
    return out


def moment_series(alpha, A, k_max: int) -> np.ndarray:
    """``k! alpha (-A)^(-k) 1`` for k = 0..k_max, one solve per k; ``alpha``
    need not sum to 1, so a part of a representation gets its partial moments."""
    negA = -A
    y = np.ones(negA.shape[0], dtype=negA.dtype)
    out = np.empty(k_max + 1)
    out[0] = np.real(alpha.sum())
    fact = 1.0
    for k in range(1, k_max + 1):
        try:
            y = np.linalg.solve(negA, y)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"moments: singular matrix ({exc})") from exc
        fact *= k
        out[k] = float(np.real(alpha @ y)) * fact
    return out


def moments(rep: MERep, k_max: int) -> list[float]:
    """Raw moments ``E[X^k] = k! alpha (-A)^(-k) 1`` for k = 1..k_max."""
    if k_max < 1:
        raise InvalidRepresentationError("moments: k_max must be >= 1")
    return [float(v) for v in moment_series(rep.alpha, rep.A, k_max)[1:]]

