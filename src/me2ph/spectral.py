"""Eigen-analysis, canonical minimal representations, and structural checks.

The density of any representation expands as a finite sum of terms
``c[i,j] * x^(j-1) * exp(eta_i x)`` over the eigenvalues ``eta_i`` of the
matrix.  ``modal_form`` block diagonalizes the matrix by eigenvalue cluster
(a Schur form reordered by cluster and decoupled by Sylvester equations), the
one eigenvalue layer of the package.  ``analyze_spectrum`` reads each cluster's
coefficients off its triangular block and drops eigenvalues that do not
appear; ``minimal_representation`` rebuilds the smallest pair realizing the
same sum.
"""

from dataclasses import dataclass, replace
from math import factorial, perm

import numpy as np
from scipy.linalg import get_lapack_funcs, schur

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep, mat_norm_inf
from .errors import InvalidRepresentationError, NumericError

__all__ = [
    "SpectralTerm",
    "SpectralData",
    "DecReport",
    "CConditionReport",
    "modal_form",
    "cluster_eigenvalues",
    "analyze_spectrum",
    "minimal_representation",
    "first_nonzero_derivative",
    "check_dec",
    "check_c_conditions",
]

# eigenvalue clustering, relative to the matrix infinity norm (or to the
# spectrum's scale)
EIG_CLUSTER_REL = 1e-6
# spectral terms whose coefficients all fall below this times the largest
# coefficient are treated as absent from the density
_COEFF_ZERO_REL = 1e-9
# zero-derivative threshold at x = 0, relative to max|eta|^(k+1)
_DERIV_ZERO_REL = 1e-9


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

    def is_complex(self) -> bool:
        """Whether a term has a complex eigenvalue."""
        return any(not t.is_real for t in self.terms)

    def scaled(self, c: float) -> "SpectralData":
        """Expansion of the pair ``(alpha, c A)``, the density of ``X / c``:
        each eigenvalue times ``c``, the coefficient of ``x^j`` times ``c^(j+1)``."""
        return replace(self, terms=tuple(
            SpectralTerm(t.eigenvalue * c, tuple(v * c ** (j + 1) for j, v in enumerate(t.coeffs)))
            for t in self.terms))


def modal_form(A: np.ndarray):
    """``(T, V, clusters)`` with ``A V = V T`` and ``T`` block diagonal: one
    upper triangular block ``T[span, span]`` per eigenvalue cluster, and
    ``clusters`` each cluster's ``(center, span)`` in order along the
    diagonal (Bavely & Stewart 1979).

    Diagonal entries of the Schur form within ``EIG_CLUSTER_REL`` times the
    infinity norm of ``A`` of the real axis are snapped onto it, and a cluster
    is the entries within that distance of the same earliest one in Schur
    order; its center is their mean.  For a real ``A`` the distance is taken
    between the entries folded into the upper half plane, and a cluster off
    the real axis is split into its upper and lower halves, which must be of
    equal size and get exactly conjugate centers.  The Schur form of ``A`` is
    reordered so each cluster is contiguous, and each cluster is then
    decoupled from the ones after it by a triangular Sylvester equation.  An
    upper triangular ``A`` is its own Schur form (``V = I``); none is computed.
    """
    A = np.asarray(A)
    n = A.shape[0]
    ctol = EIG_CLUSTER_REL * mat_norm_inf(A)
    T, V = (schur(A, output="complex") if np.any(np.tril(A, -1))
            else (np.array(A), np.eye(n, dtype=A.dtype)))
    diag = np.diag(T)
    diag = np.where(np.abs(diag.imag) <= ctol, diag.real + 0j, diag)
    real = np.isrealobj(A)
    key = diag.real + 1j * np.abs(diag.imag) if real else diag
    # first[i] names i's cluster; it need not be an entry whose own first is
    # itself, so clusters are labelled by its distinct values
    first = (np.abs(key[:, None] - key) <= ctol).argmax(axis=1)
    below = real & (diag.imag < 0)
    if real and np.any(np.bincount(first, np.sign(diag.imag))):
        raise NumericError(
            "modal_form: a cluster has no conjugate partner of the same size; "
            "conjugate pairing failed"
        )
    # clusters in order of 2 first + below: a real pair's lower half follows its upper
    code = 2 * first + below
    present = np.bincount(code, minlength=2 * n) > 0
    label = np.cumsum(present)[code] - 1
    roots, lower = np.divmod(np.flatnonzero(present), 2)
    sizes = np.bincount(label)
    # both halves of a real pair take the mean of their folded entries
    mean = np.bincount(first, key.real) + 1j * np.bincount(first, key.imag)
    mean = mean[roots] / np.bincount(first)[roots]
    centers = [complex(z.conjugate() if b else z) for z, b in zip(mean, lower)]
    order = np.argsort(label, kind="stable")
    if np.any(order != np.arange(n)):
        (trexc,) = get_lapack_funcs(("trexc",), (T,))
        at = list(range(n))  # at[pos]: original index of the entry now at pos
        for pos, want in enumerate(order):
            i = at.index(want)
            if i != pos:
                T, V, info = trexc(T, V, i + 1, pos + 1)
                if info:
                    raise NumericError(f"modal_form: Schur reordering failed (info {info})")
                at.insert(pos, at.pop(i))
    ends = np.cumsum(sizes)
    spans = [slice(int(e - m), int(e)) for m, e in zip(sizes, ends)]
    label = label[order]
    if np.any(np.triu(T, 1)[label[:, None] != label]):
        (trsyl,) = get_lapack_funcs(("trsyl",), (T,))
        for c in spans[:-1]:
            # T[c, c] Y - Y T[rest, rest] = -T[c, rest] zeroes T[c, rest]
            Y, scale, info = trsyl(T[c, c], T[c.stop:, c.stop:], -T[c, c.stop:], isgn=-1)
            if info < 0:
                raise NumericError(f"modal_form: Sylvester solve failed (info {info})")
            V[:, c.stop:] += V[:, c] @ (Y / scale)
            T[c, c.stop:] = 0
    return T, V, tuple(zip(centers, spans))


def _center_order(eta: complex) -> tuple[float, float, float]:
    """Sort key of cluster centers: descending real part, the members of a
    conjugate pair adjacent (positive imaginary part first)."""
    return -eta.real, -abs(eta.imag), -eta.imag


def cluster_eigenvalues(A: np.ndarray) -> tuple[tuple[complex, int], ...]:
    """``(center, multiplicity)`` of each eigenvalue cluster of ``A``
    (``modal_form``), sorted by ``_center_order``."""
    pairs = ((eta, c.stop - c.start) for eta, c in modal_form(A)[2])
    return tuple(sorted(pairs, key=lambda p: _center_order(p[0])))


def analyze_spectrum(rep: MERep) -> SpectralData:
    """Read the exponential-polynomial expansion of the density of ``rep``
    off the modal form of its matrix.

    With ``A V = V T``, ``a = alpha V`` and ``b = V^(-1) 1``, the density is
    ``-a exp(T x) T b``.  A cluster of center ``eta`` and size ``m`` adds
    ``exp(eta x) sum_k x^k / k! (-a_c N^k T_cc b_c)`` for ``k < m``, where
    ``N = T_cc - eta I`` is its nilpotent part.  For a real pair, a cluster
    below the real axis takes the conjugates of its partner's coefficients.
    Eigenvalues whose coefficients all vanish are dropped, and trailing zero
    coefficients reduce a term's multiplicity (``surviving_terms``).  All of
    it is read off ``s A``, ``s = rep.mean_scale``, and rescaled by ``1 / s``.
    """
    s = rep.mean_scale
    T, V, clusters = modal_form(s * rep.A)
    b = np.ones(rep.order)
    # the identity basis (an upper triangular A that needed no reordering
    # or decoupling) has b = 1 and needs neither the condition check nor
    # the solve
    if not np.array_equal(V, np.eye(rep.order)):
        cond = np.linalg.cond(V)
        if not np.isfinite(cond) or cond > 1e13:
            raise NumericError(
                "analyze_spectrum: modal basis is ill conditioned", detail={"cond": cond}
            )
        b = np.linalg.solve(V, b)
    a = rep.alpha @ V
    # N is block diagonal: the nilpotent part of every cluster at once
    centers = [eta for eta, _ in clusters]
    sizes = [c.stop - c.start for _, c in clusters]
    N = T - np.diag(np.repeat(centers, sizes))
    v = T @ b
    coeffs = np.empty((len(clusters), max(sizes)), dtype=complex)
    for k in range(max(sizes)):
        coeffs[:, k] = np.add.reduceat(-a * v, [c.start for _, c in clusters]) / factorial(k)
        v = N @ v
    mirror = not rep.is_complex()
    by_eig: dict[complex, np.ndarray] = {}
    for i in sorted(range(len(clusters)), key=lambda i: _center_order(centers[i])):
        eta, cs = centers[i], coeffs[i, : sizes[i]]
        if eta.imag < 0 and mirror:
            cs = np.conj(by_eig[eta.conjugate()])
        by_eig[eta] = cs.real if eta.imag == 0 else cs
    return surviving_terms(by_eig).scaled(1 / s)


def surviving_terms(by_eig: dict[complex, np.ndarray]) -> SpectralData:
    """Expansion from per-eigenvalue coefficients: those at most
    ``_COEFF_ZERO_REL`` times the largest are zero, trailing zeros reduce a
    term's multiplicity, and a term left with none is absent."""
    scale = max(max(float(np.abs(cs).max()) for cs in by_eig.values()), 1e-300)
    cut = _COEFF_ZERO_REL * scale
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


def _jordan_pair(spec: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha, J)`` of the canonical minimal pair realizing the expansion.

    ``J`` is block diagonal with one upper bidiagonal block per term
    (eigenvalue on the diagonal, ones above); the vector entries follow from
    a per-block triangular recurrence matching the term coefficients, so the
    density of the pair equals the expansion exactly.  Both are real unless
    a term is complex.
    """
    cplx, n = spec.is_complex(), spec.order
    mult = np.array([t.multiplicity for t in spec.terms])
    etas = np.array([t.eigenvalue for t in spec.terms])
    starts = np.cumsum(mult) - mult
    J = np.zeros((n, n), dtype=complex if cplx else float)
    flat = J.reshape(-1)
    flat[:: n + 1] = np.repeat(etas if cplx else etas.real, mult)
    above = np.ones(n - 1)
    above[starts[1:] - 1] = 0.0  # none between two blocks
    flat[1 :: n + 1] = above
    # partial sums T_k of a block's alpha entries satisfy
    #   c_j (j-1)! = -(eta T_{m-j+1} + T_{m-j}),  T_0 = 0
    # so a term of multiplicity 1 has the one entry -c_1/eta
    alpha = np.empty(n, dtype=complex)
    simple = mult == 1
    alpha[starts[simple]] = -np.array([t.coeffs[0] for t in spec.terms])[simple] / etas[simple]
    for i in np.flatnonzero(~simple):
        term, at, m = spec.terms[i], starts[i], mult[i]
        eta = term.eigenvalue
        T = np.zeros(m + 1, dtype=complex)
        for j in range(m, 0, -1):
            T[m - j + 1] = (-term.coeffs[j - 1] * factorial(j - 1) - T[m - j]) / eta
        alpha[at : at + m] = np.diff(T)
    return (alpha if cplx else alpha.real.copy()), J


def minimal_representation(spec: SpectralData) -> MERep:
    """The canonical minimal pair of the expansion (``_jordan_pair``)."""
    return MERep(*_jordan_pair(spec))


def first_nonzero_derivative(spec: SpectralData) -> tuple[int, float] | None:
    """``(k, f^(k)(0))`` for the smallest ``k <= order`` whose derivative at 0
    is nonzero relative to ``s^(k+1)``, ``s = max |eta|``, which scales with the
    unit of time as ``f^(k)(0)`` does; None when all of them vanish.  A term
    ``c x^j e^(eta x)`` adds ``c k!/(k-j)! eta^(k-j)`` to ``f^(k)(0)``."""
    scale = max(abs(t.eigenvalue) for t in spec.terms)
    for k in range(spec.order + 1):
        d = sum(c * perm(k, j) * t.eigenvalue ** (k - j)
                for t in spec.terms for j, c in enumerate(t.coeffs[: k + 1]))
        if abs(d.real) > _DERIV_ZERO_REL * scale ** (k + 1):
            return k, d.real
    return None


def _term_values(eta: complex, coeffs: tuple[complex, ...], xs: np.ndarray) -> np.ndarray:
    """Real part of ``sum_j c[j] x^j exp(eta x)``, in real arithmetic for a
    real ``eta``."""
    if eta.imag == 0:
        eta, coeffs = eta.real, [c.real for c in coeffs]
    poly = 0.0
    for c in reversed(coeffs):
        poly = poly * xs + c
    return (poly * np.exp(eta * xs)).real


def expansion_values(spec: SpectralData, xs: np.ndarray) -> np.ndarray:
    """Evaluate the exponential-polynomial expansion on an array of points.

    The sum is real: a real eigenvalue's term is evaluated in real
    arithmetic, and a complex term whose conjugate partner has exactly
    conjugate coefficients (as in every expansion of a real pair) once, for
    the member above the real axis, its real part added twice (it is the
    partner's real part, bit for bit).
    """
    xs = np.asarray(xs, dtype=float)
    terms = [(complex(t.eigenvalue), tuple(map(complex, t.coeffs))) for t in spec.terms]
    out = np.zeros(xs.shape)
    for eta, coeffs in terms:
        paired = eta.imag != 0 and (eta.conjugate(), tuple(c.conjugate() for c in coeffs)) in terms
        if paired and eta.imag < 0:
            continue
        values = _term_values(eta, coeffs, xs)
        out += values
        if paired:
            out += values
    return out


def density_evaluator(spec: SpectralData):
    """The expansion of ``spec`` as a function of an array of points."""
    return lambda xs: expansion_values(spec, xs)


@dataclass(frozen=True)
class DecReport:
    ok: bool
    diagnostic: str
    dominant_eigenvalue: complex
    n1: int


def _at_top(spec: SpectralData) -> list[SpectralTerm]:
    """Terms whose real part ties the largest one, within ``EIG_CLUSTER_REL``
    times the spectrum's scale."""
    top = max(t.eigenvalue.real for t in spec.terms)
    scale = max(abs(t.eigenvalue) for t in spec.terms)
    return [t for t in spec.terms if top - t.eigenvalue.real <= EIG_CLUSTER_REL * scale]


def check_dec(spec: SpectralData) -> DecReport:
    """Check that exactly one term attains the maximal real part and is real."""
    at_top = _at_top(spec)
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
    c2 = any(t.is_real for t in _at_top(spec))
    c3 = abs(complex(rep.alpha.sum()) - 1.0) <= tol.alpha_sum
    order, value = first_nonzero_derivative(spec) or (None, None)
    c4 = value is not None and value > 0
    return CConditionReport(c1, c2, c3, c4, order, value)
