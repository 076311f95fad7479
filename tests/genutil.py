"""Random-instance builders shared across the test suite."""

from math import factorial

import numpy as np

from me2ph import MERep, SpectralData, SpectralTerm, minimal_representation


def random_markovian_rep(rng: np.random.Generator, n: int,
                         density: float = 0.6) -> MERep:
    """Random non-redundant Markovian pair: strictly positive initial vector,
    every state with a positive absorption rate."""
    off = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(off, 0.0)
    exits = rng.uniform(0.1, 1.0, size=n)
    A = off - np.diag(off.sum(axis=1) + exits)
    alpha = rng.dirichlet(np.ones(n) * 2.0)
    return MERep(alpha, A)


def spectrum_integral(terms) -> complex:
    """Integral over [0, inf) of sum c[j] x^(j-1) exp(eta x) per term."""
    total = 0.0 + 0.0j
    for eta, coeffs in terms:
        for j, c in enumerate(coeffs, start=1):
            total += c * factorial(j - 1) / (-eta) ** j
    return total


def rep_from_terms(terms, normalize: bool = True) -> MERep:
    """Minimal pair realizing the given (eigenvalue, coefficients) terms.

    Conjugate partners are added automatically; with ``normalize`` the
    coefficients are scaled so the density integrates to 1.
    """
    full = []
    for eta, coeffs in terms:
        eta = complex(eta)
        full.append((eta, [complex(c) for c in coeffs]))
        if eta.imag != 0:
            full.append((eta.conjugate(), [complex(c).conjugate() for c in coeffs]))
    if normalize:
        total = spectrum_integral(full)
        assert abs(total.imag) < 1e-12 * max(abs(total), 1.0)
        full = [(eta, [c / total.real for c in coeffs]) for eta, coeffs in full]
    spec_terms = tuple(SpectralTerm(eta, tuple(coeffs)) for eta, coeffs in full)
    dominant = max(range(len(spec_terms)),
                   key=lambda i: (spec_terms[i].eigenvalue.real, spec_terms[i].is_real))
    return minimal_representation(SpectralData(spec_terms, dominant))


def damped_oscillation_rep(rng: np.random.Generator):
    """Density exp(-x) plus a deeper damped oscillation; positive, dominance
    condition satisfied, and usually with a sign-changing monocyclic vector."""
    for _ in range(100):
        a = rng.uniform(1.6, 2.6)
        b = rng.uniform(0.8, 1.8)
        amp = rng.uniform(0.5, 1.6)
        phase = rng.uniform(0.0, 2 * np.pi)
        c = amp * np.exp(1j * phase)
        terms = [(-1.0 + 0j, [1.0]), (complex(-a, b), [c / 2])]
        xs = np.linspace(1e-4, 30.0, 1200)
        vals = _expansion_values(terms, xs)
        envelope = np.exp(-xs)
        if (vals / envelope).min() > 0.05 and _expansion_values(terms, np.array([0.0]))[0] > 1e-3:
            return rep_from_terms(terms)
    raise AssertionError("no valid draw in 100 attempts")


def tailed_damped_rep(rng: np.random.Generator) -> MERep:
    """``e^-x + c e^(-a x) cos(b x + phi)`` with its parameters near those of
    the tail anchors: of the draws of ``default_rng(0)`` to ``default_rng(59)``,
    50 convert with a tail, 3 without, and 7 have a density that is not
    positive."""
    a, b = rng.uniform(1.6, 1.9), rng.uniform(1.55, 1.7)
    c = rng.uniform(1.25, 1.35) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return rep_from_terms([(-1.0, [1.0]), (complex(-a, b), [c / 2])])


def _expansion_values(terms, xs: np.ndarray) -> np.ndarray:
    total = spectrum_integral(
        [(complex(eta), list(cs)) for eta, cs in terms]
        + [(complex(eta).conjugate(), [complex(c).conjugate() for c in cs])
           for eta, cs in terms if complex(eta).imag != 0]
    ).real
    out = np.zeros_like(xs, dtype=complex)
    for eta, coeffs in terms:
        eta = complex(eta)
        for j, c in enumerate(coeffs, start=1):
            contrib = c * xs ** (j - 1) * np.exp(eta * xs)
            out += contrib
            if eta.imag != 0:
                out += np.conj(c) * xs ** (j - 1) * np.exp(eta.conjugate() * xs)
    return out.real / total


def erlang_damped_rep(rng: np.random.Generator):
    """Density vanishing at the origin: x^l exp(-x) body plus a deeper damped
    oscillation of matching origin order.  Returns the pair and the true l."""
    for _ in range(100):
        l = int(rng.integers(1, 3))
        a = rng.uniform(1.8, 2.8)
        b = rng.uniform(0.8, 1.6)
        amp = rng.uniform(0.05, 0.35)
        phase = rng.uniform(0.0, 2 * np.pi)
        # both pieces start like x^l, so the zero's multiplicity stays l
        terms = [(-1.0 + 0j, [0.0] * l + [1.0]),
                 (complex(-a, b), [0.0] * l + [amp * np.exp(1j * phase) / 2])]
        xs = np.linspace(1e-3, 30.0, 1200)
        vals = _expansion_values(terms, xs)
        envelope = xs**l * np.exp(-xs)
        if (vals / envelope).min() > 0.05:
            return rep_from_terms(terms), l
    raise AssertionError("no valid draw in 100 attempts")


def multi_class_generator() -> np.ndarray:
    """10-state Markovian generator with five communicating classes; its
    dominant eigenvalue is -1 with algebraic multiplicity 4."""
    return np.array([
        [-4, 1, 1, 0, 0.2, 0.4, 0, 0, 0, 0.4],
        [1, -2, 1, 0, 0, 0, 0, 0, 0, 0],
        [2, 0, -3, 0, 0, 0, 0, 0.2, 0.4, 0.2],
        [0, 0, 0, -4, 3, 0.2, 0.2, 0, 0.4, 0],
        [0, 0, 0, 1, -2, 0, 0.2, 0.2, 0, 0.2],
        [0, 0, 0, 0, 0, -2, 1, 0, 0.2, 0],
        [0, 0, 0, 0, 0, 1, -2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -8, 2, 0.6],
        [0, 0, 0, 0, 0, 0, 0, 6, -7, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
    ], dtype=float)


def sign_changing_rep() -> MERep:
    """``e^-x + c e^(-a x) cos(b x + phi)``: its oscillation is finer than
    the positivity grid, which it passes, yet it dips to -0.02 near
    ``x = 0.007``."""
    a, b = 3.616900982579682, 64.89210023977378
    c, phi = 1.0391932935046773, 2.6558221377616955
    return rep_from_terms([(-1.0, [1.0]), (complex(-a, b), [c * np.exp(1j * phi) / 2])])
