"""Splitting off and reattaching an Erlang factor when the density vanishes at 0.

A density with a zero of multiplicity ``l`` at the origin factors as the
convolution of an Erlang(l, mu) density and a residual density that is
strictly positive at 0, for any large enough ``mu``.  The residual keeps the
same matrix; only the vector changes.  Reattaching the factor prepends ``l``
pure Erlang states to a finished Markovian representation.
"""

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep, first_nonzero_derivative
from .errors import InvalidRepresentationError, PositiveDensityError
from .spectral import SpectralData, analyze_spectrum
from .tail import PHRep

__all__ = ["DeconvParams", "zero_multiplicity", "deconvolve", "choose_mu", "recompose"]


@dataclass(frozen=True)
class DeconvParams:
    """Erlang factor split off in front of the distribution: length and rate."""

    l: int
    mu: float

    def __post_init__(self):
        if self.l < 0 or int(self.l) != self.l:
            raise InvalidRepresentationError(f"DeconvParams: l must be a nonnegative integer, got {self.l}")
        if self.l > 0 and not self.mu > 0:
            raise InvalidRepresentationError(f"DeconvParams: mu must be positive, got {self.mu}")


def zero_multiplicity(rep: MERep, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Multiplicity of the density's zero at the origin.

    Returns the smallest ``l`` whose derivative at 0 is nonzero relative to
    ``||A||_inf^(l+1)``; 0 means the density is already positive at 0.
    """
    first = first_nonzero_derivative(rep, tol)
    if first is None:
        raise InvalidRepresentationError(
            f"zero_multiplicity: all derivatives through order {rep.order} vanish; "
            "the input does not define a valid density"
        )
    return first[0]


def deconvolve(rep: MERep, l: int, mu: float,
               tol: ToleranceConfig = DEFAULT_TOL) -> MERep:
    """Residual representation after removing an Erlang(l, mu) factor.

    The vector becomes ``alpha sum_i C(l,i) (A/mu)^i`` over i = 0..l; the
    matrix is unchanged.  Positivity of the residual density is the caller's
    check (see ``choose_mu``).
    """
    if l == 0:
        return rep
    n = rep.order
    acc = np.zeros_like(rep.alpha)
    power = np.array(rep.alpha)
    for i in range(l + 1):
        acc = acc + comb(l, i) * power
        power = power @ (rep.A / mu)
    return MERep(acc, rep.A, tol=tol)


def choose_mu(rep: MERep, l: int, spec: SpectralData,
              tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Doubling search for an Erlang rate making the residual density positive.

    Starts at twice the dominant rate and accepts the first candidate whose
    residual passes the positive-density check; termination is guaranteed for
    valid inputs, so a long search signals a violated precondition.
    """
    from .validate import check_positive_density

    if l < 1:
        raise InvalidRepresentationError("choose_mu: nothing to split off when l = 0")
    mu = 2.0 * spec.lambda1
    for _ in range(tol.max_doublings):
        candidate = deconvolve(rep, l, mu, tol)
        spec_y = analyze_spectrum(candidate, tol)
        verdict = check_positive_density(candidate, spec_y, tol)
        if verdict.ok:
            return mu
        mu *= 2
    raise PositiveDensityError(
        "choose_mu: positive-density or dominant-eigenvalue precondition likely "
        f"violated; no rate accepted after {tol.max_doublings} doublings"
    )


def recompose(ph: PHRep, l: int, mu: float) -> PHRep:
    """Prepend the Erlang(l, mu) factor to a Markovian representation.

    The result starts deterministically in the first prefix state, the last
    prefix state feeding the body with rates ``mu`` times the body's initial
    vector, so Markovianity is preserved.
    """
    if l == 0:
        return ph
    if ph.prefix is not None and ph.prefix.l > 0:
        raise InvalidRepresentationError("recompose: representation already has a prefix")
    if mu <= ph.lambda1:
        raise InvalidRepresentationError(
            f"recompose: prefix rate {mu} must exceed the dominant rate {ph.lambda1}"
        )
    return replace(ph, prefix=DeconvParams(l, mu))
