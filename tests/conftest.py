"""Shared fixtures: the order-7 regression example and its derived forms."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from me2ph import (
    BoundsReport,
    MERep,
    PaperBounds,
    SpectralData,
    SpectralTerm,
    analyze_spectrum,
    build_generator,
    choose_mu,
    compute_bounds,
    convert,
    find_tau,
    solve_gamma,
    zero_multiplicity,
)

SCALE = 102 / 139

ALPHA7 = SCALE * np.array([1, 1, -1 / 3, 2 / 3, -5 / 2, 12 / 17, 14 / 17])
A7 = np.array(
    [
        [-1, 1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0],
        [0, 0, -1, 4, 0, 0, 0],
        [0, 0, 1, -1, 0, 0, 0],
        [0, 0, 0, 0, -4, 0, 0],
        [0, 0, 0, 0, 0, -5, 3],
        [0, 0, 0, 0, 0, -3, -5],
    ],
    dtype=float,
)

# minimal form: Jordan block for -1, then -3, -4, -5 +/- 3j
ALPHA6 = SCALE * np.array(
    [1, 1, 1 / 3, -5 / 2, (13 + 1j) / 17, (13 - 1j) / 17], dtype=complex
)
A6 = np.diag(np.array([-1, -1, -3, -4, -5 + 3j, -5 - 3j], dtype=complex))
A6[0, 1] = 1.0

# residual vector after removing the Erlang(1, 10) factor (same matrix)
ALPHA_RESIDUAL = SCALE * np.array(
    [9 / 10, 1, 7 / 30, -3 / 2, (31 + 22j) / 85, (31 - 22j) / 85], dtype=complex
)

GAMMA8_FRACTIONS = [
    Fraction(315, 2176),
    Fraction(10733, 21760),
    Fraction(6641, 32640),
    Fraction(8399, 21760),
    Fraction(147, 680),
    Fraction(-67, 272),
    Fraction(-45, 1088),
    Fraction(225, 1088),
]
GAMMA8 = SCALE * np.array([float(f) for f in GAMMA8_FRACTIONS])

G8 = np.array(
    [
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -3, 3, 0, 0, 0, 0],
        [0, 0, 0, -4, 4, 0, 0, 0],
        [0, 0, 0, 0, -5, 5, 0, 0],
        [0, 0, 0, 0, 0, -5, 5, 0],
        [0, 0, 0, 0, 0, 0, -5, 5],
        [0, 0, 0, 0, 81 / 125, 0, 0, -5],
    ],
    dtype=float,
)


def f_closed(x):
    """Closed form of the example's density."""
    x = np.asarray(x, dtype=float)
    return SCALE * (
        x * np.exp(-x)
        + np.exp(-x)
        + np.exp(-3 * x)
        - 10 * np.exp(-4 * x)
        + np.exp(-5 * x) * (8 * np.cos(3 * x) + 4 * np.sin(3 * x))
    )


def fy_closed(x):
    """Closed form of the residual density for the Erlang(1, 10) split."""
    x = np.asarray(x, dtype=float)
    return SCALE * (
        0.9 * x * np.exp(-x)
        + np.exp(-x)
        + 0.7 * np.exp(-3 * x)
        - 6 * np.exp(-4 * x)
        + np.exp(-5 * x) * (5.2 * np.cos(3 * x) - 0.4 * np.sin(3 * x))
    )


@pytest.fixture(scope="session")
def worked_rep() -> MERep:
    return MERep(ALPHA7, A7)


@pytest.fixture(scope="session")
def worked_minimal() -> MERep:
    return MERep(ALPHA6, A6)


@pytest.fixture(scope="session")
def worked_spec() -> SpectralData:
    """Exact expansion of the example's density, read off ``f_closed``."""
    terms = [(-1, [1, 1]), (-3, [1]), (-4, [-10]), (-5 + 3j, [4 - 2j]), (-5 - 3j, [4 + 2j])]
    return SpectralData(
        tuple(SpectralTerm(complex(eta), tuple(SCALE * complex(c) for c in cs))
              for eta, cs in terms),
        dominant=0,
    )


@pytest.fixture(scope="session")
def worked_residual() -> MERep:
    return MERep(ALPHA_RESIDUAL, A6)


@pytest.fixture(scope="session")
def worked_conversion(worked_rep):
    """Converted regression example with the published rounded constants."""
    return convert(worked_rep, paper_bounds=PaperBounds())


def certificate(rep: MERep) -> BoundsReport:
    """The certificate ``convert`` prices when its search finds no tail:
    ``find_tau`` and ``compute_bounds`` on the body and the expansion it
    realizes, in units of the input's mean, returned in the input's units."""
    s = rep.mean_scale
    spec = analyze_spectrum(rep).scaled(s)
    l = zero_multiplicity(spec)
    if l:
        spec = choose_mu(spec, l)[1]
    mono = solve_gamma(spec, build_generator(spec))
    b = compute_bounds(mono, *find_tau(mono, spec), spec)
    return replace(b, tau=b.tau * s, g=b.g / s, eps2=b.eps2 / s, lambda_prime=b.lambda_prime / s,
                   lambda_dprime=b.lambda_dprime / s, rate=b.rate / s)
