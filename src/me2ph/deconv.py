"""Splitting off and reattaching an Erlang factor when the density vanishes at 0.

A density with a zero of multiplicity ``l`` at the origin factors as the
convolution of an Erlang(l, mu) density and a residual density that is
strictly positive at 0, for any large enough ``mu``.  The split is a closed-form
map on the coefficients of each term of the density's expansion, off which
``l`` and the residual's positivity are read too.  Reattaching the factor
prepends ``l`` pure Erlang states to a finished Markovian form.
"""

from dataclasses import replace

import numpy as np

from .errors import InvalidRepresentationError, PositiveDensityError
from .spectral import SpectralData, first_nonzero_derivative, surviving_terms
from .tail import DeconvParams, PHRep
from .validate import check_positive_density

__all__ = ["DeconvParams", "zero_multiplicity", "deconvolve", "choose_mu", "recompose"]

# choose_mu gives up after this many doublings of the rate
_MAX_DOUBLINGS = 60


def zero_multiplicity(spec: SpectralData) -> int:
    """Multiplicity of the density's zero at the origin.

    Returns the order of the expansion's first nonzero derivative at 0
    (``first_nonzero_derivative``); 0 means the density is positive at 0.
    """
    first = first_nonzero_derivative(spec)
    if first is None:
        raise InvalidRepresentationError(
            f"zero_multiplicity: all derivatives through order {spec.order} vanish; "
            "the input does not define a valid density"
        )
    return first[0]


def deconvolve(spec: SpectralData, l: int, mu: float) -> SpectralData:
    """Expansion of the residual density after removing an Erlang(l, mu) factor.

    Applies ``(1 + D/mu)^l``, ``D = d/dx``, to every term ``p(x) e^(eta x)``:
    each factor maps ``p`` to ``(1 + eta/mu) p + p'/mu``, and vanishing
    coefficients are dropped.  Positivity is the caller's check (``choose_mu``).
    """
    if l == 0:
        return spec
    by_eig: dict[complex, np.ndarray] = {}
    for term in spec.terms:
        c = np.array(term.coeffs)  # c[k] multiplies x^k
        for _ in range(l):
            dc = np.append(np.arange(1, c.size) * c[1:], 0)
            c = (1 + term.eigenvalue / mu) * c + dc / mu
        by_eig[term.eigenvalue] = c
    return surviving_terms(by_eig)


def choose_mu(spec: SpectralData, l: int) -> tuple[float, SpectralData]:
    """Doubling search for an Erlang rate making the residual density positive.

    Starts at twice the dominant rate and accepts the first candidate whose
    residual expansion passes the positive-density check; termination is
    guaranteed for valid inputs, so a long search signals a violated
    precondition.  Returns the accepted rate and the residual's expansion.
    """
    if l < 1:
        raise InvalidRepresentationError("choose_mu: nothing to split off when l = 0")
    mu = 2.0 * spec.lambda1
    for _ in range(_MAX_DOUBLINGS):
        candidate = deconvolve(spec, l, mu)
        if check_positive_density(candidate).ok:
            return mu, candidate
        mu *= 2
    raise PositiveDensityError(
        "choose_mu: positive-density or dominant-eigenvalue precondition likely "
        f"violated; no rate accepted after {_MAX_DOUBLINGS} doublings"
    )


def recompose(ph: PHRep, l: int, mu: float) -> PHRep:
    """Prepend the Erlang(l, mu) factor to a Markovian representation.

    The result starts deterministically in the first prefix state, the last
    prefix state feeding the body with rates ``mu`` times the body's initial
    vector, so Markovianity is preserved.
    """
    if l == 0:
        return ph
    if ph.prefix is not None:
        raise InvalidRepresentationError("recompose: representation already has a prefix")
    if mu <= ph.lambda1:
        raise InvalidRepresentationError(
            f"recompose: prefix rate {mu} must exceed the dominant rate {ph.lambda1}"
        )
    return replace(ph, prefix=DeconvParams(l, mu))
