"""Eigen-analysis, canonical minimal representations, and structural checks.

The density of any representation expands as a finite sum of terms
``c[i,j] * x^(j-1) * exp(eta_i x)`` over the eigenvalues ``eta_i`` of the
matrix.  ``analyze_spectrum`` recovers these coefficients exactly from the
derivatives of the density at zero and drops eigenvalues that do not appear;
``minimal_representation`` rebuilds the smallest pair realizing the same sum.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep, derivatives_at_zero, first_nonzero_derivative, mat_norm_inf
from .errors import InvalidRepresentationError, NumericError

__all__ = [
    "SpectralTerm",
    "SpectralData",
    "DecReport",
    "CConditionReport",
    "cluster_eigenvalues",
    "analyze_spectrum",
    "minimal_representation",
    "check_dec",
    "check_c_conditions",
]


@dataclass(frozen=True)
class SpectralTerm:
    """One eigenvalue's contribution: coefficients of x^(j-1) e^(eigenvalue x)."""

    eigenvalue: complex
    coeffs: tuple[complex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.coeffs)

    @property
    def is_real(self) -> bool:
        return self.eigenvalue.imag == 0.0


@dataclass(frozen=True)
class SpectralData:
    """Surviving spectral terms of a density plus the dominant-term index."""

    terms: tuple[SpectralTerm, ...]
    dominant: int

    def __post_init__(self):
        if not self.terms:
            raise InvalidRepresentationError("SpectralData: no terms survived")
        if not (0 <= self.dominant < len(self.terms)):
            raise InvalidRepresentationError("SpectralData: dominant index out of range")

    @property
    def dominant_term(self) -> SpectralTerm:
        return self.terms[self.dominant]

    @property
    def lambda1(self) -> float:
        """Decay rate of the dominant eigenvalue (positive for stable spectra)."""
        return -self.dominant_term.eigenvalue.real

    @property
    def n1(self) -> int:
        return self.dominant_term.multiplicity

    @property
    def order(self) -> int:
        return sum(t.multiplicity for t in self.terms)


def cluster_eigenvalues(A: np.ndarray,
                        tol: ToleranceConfig = DEFAULT_TOL) -> tuple[tuple[complex, int], ...]:
    """Group the eigenvalues of ``A`` into conjugate-symmetric clusters.

    Returns ``(eigenvalue, multiplicity)`` pairs sorted by descending real
    part, the members of a conjugate pair adjacent (positive imaginary part
    first).  Two eigenvalues merge when they differ by at most
    ``eig_cluster_rel`` times the infinity norm of ``A``; the cluster size is
    the algebraic multiplicity.  Near-real eigenvalues are snapped onto the
    real axis so that conjugate pairs come out exactly symmetric.
    """
    A = np.asarray(A)
    evs = np.linalg.eigvals(A)
    ctol = tol.eig_cluster_rel * max(mat_norm_inf(A), 1.0)
    evs = np.where(np.abs(evs.imag) <= ctol, evs.real + 0j, evs)

    # cluster the closed upper half plane, then mirror
    upper = sorted(
        (ev for ev in evs if ev.imag >= 0),
        key=lambda e: (-e.real, e.imag),
    )
    clusters: list[list[complex]] = []
    for ev in upper:
        placed = False
        for cl in clusters:
            if abs(ev - cl[0]) <= ctol:
                cl.append(ev)
                placed = True
                break
        if not placed:
            clusters.append([ev])

    pairs: list[tuple[complex, int]] = []
    for cl in clusters:
        center = complex(np.mean(cl))
        if abs(center.imag) <= ctol:
            center = complex(center.real)
        pairs.append((center, len(cl)))
        if center.imag != 0:
            pairs.append((center.conjugate(), len(cl)))
    pairs.sort(key=lambda p: (-p[0].real, -abs(p[0].imag), -p[0].imag))
    total = sum(m for _, m in pairs)
    if total != A.shape[0]:
        raise NumericError(
            "cluster_eigenvalues: multiplicities do not sum to the dimension "
            f"({total} vs {A.shape[0]}); conjugate pairing failed"
        )
    return tuple(pairs)


def _coefficient_matrix(slots: list[tuple[complex, int]], rows: int) -> np.ndarray:
    """Rows k = 0..rows-1 of d^k/dx^k [x^(j-1) e^(eta x)] at x = 0 per slot."""
    M = np.zeros((rows, len(slots)), dtype=complex)
    for col, (eta, j) in enumerate(slots):
        for k in range(j - 1, rows):
            M[k, col] = factorial(k) // factorial(k - j + 1) * eta ** (k - j + 1)
    return M


def analyze_spectrum(rep: MERep, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralData:
    """Recover the exponential-polynomial expansion of the density of ``rep``.

    Coefficients are obtained by matching the derivatives of the density at
    zero (computed exactly as matrix products) against the derivatives of the
    candidate terms; eigenvalues whose coefficients all vanish are dropped,
    and trailing zero coefficients reduce a term's multiplicity.
    """
    spectrum = cluster_eigenvalues(rep.A, tol)
    slots: list[tuple[complex, int]] = []
    for ev, mult in spectrum:
        for j in range(1, mult + 1):
            slots.append((ev, j))
    n = len(slots)
    try:
        M = _coefficient_matrix(slots, n)
    except OverflowError as exc:
        raise NumericError(
            f"analyze_spectrum: derivative powers of the {n} eigenvalue slots overflow"
        ) from exc
    rhs = derivatives_at_zero(rep, n).astype(complex)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e13:
        raise NumericError(
            "analyze_spectrum: coefficient system is ill conditioned",
            detail={"cond": cond},
        )
    coeffs = np.linalg.solve(M, rhs)

    by_eig: dict[complex, np.ndarray] = {}
    i = 0
    for ev, mult in spectrum:
        by_eig[ev] = coeffs[i : i + mult]
        i += mult

    # conjugate symmetry is exact in the underlying density; enforce it
    for ev in list(by_eig):
        if ev.imag > 0 and ev.conjugate() in by_eig:
            avg = (by_eig[ev] + np.conj(by_eig[ev.conjugate()])) / 2
            by_eig[ev] = avg
            by_eig[ev.conjugate()] = np.conj(avg)
        elif ev.imag == 0:
            by_eig[ev] = by_eig[ev].real + 0j

    return surviving_terms(by_eig, tol)


def surviving_terms(by_eig: dict[complex, np.ndarray], tol: ToleranceConfig) -> SpectralData:
    """Expansion from per-eigenvalue coefficients: those at most
    ``coeff_zero_rel`` times the largest are zero, trailing zeros reduce a
    term's multiplicity, and a term left with none is absent."""
    scale = max(max(float(np.abs(cs).max()) for cs in by_eig.values()), 1e-300)
    cut = tol.coeff_zero_rel * scale
    terms: list[SpectralTerm] = []
    for ev, cs in by_eig.items():
        eff = len(cs)
        while eff > 0 and abs(cs[eff - 1]) <= cut:
            eff -= 1
        if eff == 0:
            continue
        terms.append(SpectralTerm(ev, tuple(complex(c) for c in cs[:eff])))
    if not terms:
        raise InvalidRepresentationError("surviving_terms: density is identically zero")
    best = max(range(len(terms)), key=lambda i: (terms[i].eigenvalue.real, terms[i].is_real))
    return SpectralData(tuple(terms), dominant=best)


def minimal_representation(spec: SpectralData, tol: ToleranceConfig = DEFAULT_TOL) -> MERep:
    """Build the canonical minimal pair realizing the spectral expansion.

    The matrix is block diagonal with one upper bidiagonal block per term
    (eigenvalue on the diagonal, ones above); the vector entries follow from a
    per-block triangular recurrence matching the term coefficients, so the
    density of the output equals the expansion exactly.
    """
    blocks = []
    alpha_parts = []
    complex_needed = any(not t.is_real for t in spec.terms)
    for term in spec.terms:
        m = term.multiplicity
        eta = term.eigenvalue
        J = np.diag(np.full(m, eta, dtype=complex)) + np.diag(np.ones(m - 1), 1)
        # partial sums T_k of the block's alpha entries satisfy
        #   c_j (j-1)! = -(eta T_{m-j+1} + T_{m-j}),  T_0 = 0
        T = np.zeros(m + 1, dtype=complex)
        for j in range(m, 0, -1):
            k = m - j + 1
            T[k] = (-term.coeffs[j - 1] * factorial(j - 1) - T[k - 1]) / eta
        alpha_parts.append(np.diff(T))
        blocks.append(J)

    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        m = b.shape[0]
        A[at : at + m, at : at + m] = b
        at += m
    alpha = np.concatenate(alpha_parts)
    if not complex_needed:
        alpha = alpha.real
        A = A.real
    return MERep(alpha, A, tol=tol)


def expansion_values(spec: SpectralData, xs: np.ndarray) -> np.ndarray:
    """Evaluate the exponential-polynomial expansion on an array of points."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=complex)
    for term in spec.terms:
        poly = np.zeros(xs.shape, dtype=complex)
        for c in reversed(term.coeffs):
            poly = poly * xs + c
        out += poly * np.exp(term.eigenvalue * xs)
    return out.real


def density_evaluator(spec: SpectralData):
    """The expansion of ``spec`` as a function of an array of points."""
    return lambda xs: expansion_values(spec, xs)


@dataclass(frozen=True)
class DecReport:
    ok: bool
    diagnostic: str
    dominant_eigenvalue: complex
    n1: int


def _at_top(spec: SpectralData, tol: ToleranceConfig) -> list[SpectralTerm]:
    """Terms whose real part ties the largest one, within ``eig_cluster_rel``
    times the spectrum's scale."""
    top = max(t.eigenvalue.real for t in spec.terms)
    scale = max(max(abs(t.eigenvalue) for t in spec.terms), 1.0)
    return [t for t in spec.terms if top - t.eigenvalue.real <= tol.eig_cluster_rel * scale]


def check_dec(spec: SpectralData, tol: ToleranceConfig = DEFAULT_TOL) -> DecReport:
    """Check that exactly one term attains the maximal real part and is real."""
    at_top = _at_top(spec, tol)
    dom = spec.dominant_term
    if len(at_top) == 1 and at_top[0].is_real:
        return DecReport(True, "single real dominant eigenvalue", dom.eigenvalue, dom.multiplicity)
    names = ", ".join(fmt_complex(t.eigenvalue) for t in at_top)
    if len(at_top) == 1:
        msg = f"dominant eigenvalue {names} is complex"
    else:
        msg = f"eigenvalues tie at maximal real part: {names}"
    return DecReport(False, msg, dom.eigenvalue, dom.multiplicity)


def fmt_complex(z: complex) -> str:
    """Eigenvalue as printed in reports and messages, e.g. ``-5+3j``."""
    if z.imag == 0:
        return f"{z.real:g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:g}{sign}{abs(z.imag):g}j"


@dataclass(frozen=True)
class CConditionReport:
    """Pass/fail for the validity conditions of a minimal representation:
    stable spectrum, real leading eigenvalue, unit vector sum, and first
    nonzero density derivative at zero nonnegative."""

    c1_stable: bool
    c2_real_dominant: bool
    c3_normalized: bool
    c4_nonneg_start: bool
    first_nonzero_order: int | None
    first_nonzero_value: float | None

    @property
    def all_ok(self) -> bool:
        return self.c1_stable and self.c2_real_dominant and self.c3_normalized and self.c4_nonneg_start


def check_c_conditions(rep: MERep, spec: SpectralData,
                       tol: ToleranceConfig = DEFAULT_TOL) -> CConditionReport:
    c1 = all(t.eigenvalue.real < 0 for t in spec.terms)
    c2 = any(t.is_real for t in _at_top(spec, tol))
    c3 = abs(complex(rep.alpha.sum()) - 1.0) <= tol.alpha_sum
    order, value = first_nonzero_derivative(rep, tol) or (None, None)
    c4 = value is not None and value > 0
    return CConditionReport(c1, c2, c3, c4, order, value)
