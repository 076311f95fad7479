"""Executable checks: Markovianity, positivity, equivalence, and a Monte
Carlo cross-check of the absorption-time interpretation."""

from dataclasses import dataclass

import numpy as np

from .config import ToleranceConfig
from .core import moments, pdf_eval_many
from .errors import InvalidRepresentationError
from .monocyclic import FEBlock
from .spectral import SpectralData, expansion_values, first_nonzero_derivative
from .tail import PHRep, phrep_cdf_grid, phrep_moments, phrep_pdf

__all__ = [
    "MarkovianVerdict",
    "PositiveDensityVerdict",
    "EquivalenceVerdict",
    "check_markovian",
    "check_positive_density",
    "check_equivalence",
    "monte_carlo_check",
    "ks_threshold",
]

# positivity grid: _POS_GRID_POINTS points on [_POS_DELTA_REL, _POS_SPAN n1] / lambda1
_POS_GRID_POINTS = 2000
_POS_DELTA_REL = 1e-3
_POS_SPAN = 30.0


@dataclass(frozen=True)
class MarkovianVerdict:
    ok: bool
    violation: str | None = None


def check_markovian(rep) -> MarkovianVerdict:
    """Entrywise Markovian conditions.

    A structured representation is Markovian by construction: its constructor
    rejects negative entries and nonpositive rates, and an initial mass off 1
    by more than ``DEFAULT_TOL.alpha_sum``.  A pair is checked with the slack
    it was built with, ``rep.tol.alpha_sum``.
    """
    if isinstance(rep, PHRep):
        return MarkovianVerdict(True)
    slack = rep.tol.alpha_sum
    alpha, A = rep.alpha, rep.A
    if np.iscomplexobj(alpha) and np.abs(alpha.imag).max() > slack:
        return MarkovianVerdict(False, "alpha has complex entries")
    if np.iscomplexobj(A) and np.abs(A.imag).max() > slack:
        return MarkovianVerdict(False, "matrix has complex entries")
    alpha = alpha.real if np.iscomplexobj(alpha) else alpha
    A = A.real if np.iscomplexobj(A) else A
    if alpha.min() < -slack:
        return MarkovianVerdict(False, f"alpha[{alpha.argmin()}] = {alpha.min():.6g} < 0")
    if abs(alpha.sum() - 1.0) > slack:
        return MarkovianVerdict(False, f"alpha sums to {alpha.sum():.12g}")
    diag = np.diag(A)
    if diag.max() >= 0:
        return MarkovianVerdict(False, f"diagonal entry {diag.max():.6g} is not negative")
    off = A - np.diag(diag)
    scale = float(np.abs(A).max())
    if off.min() < -slack * scale:
        i, j = np.unravel_index(off.argmin(), off.shape)
        return MarkovianVerdict(False, f"off-diagonal A[{i},{j}] = {A[i, j]:.6g} < 0")
    rowsums = A.sum(axis=1)
    if rowsums.max() > slack * scale:
        return MarkovianVerdict(False, f"row {rowsums.argmax()} sums to {rowsums.max():.6g} > 0")
    return MarkovianVerdict(True)


@dataclass(frozen=True)
class PositiveDensityVerdict:
    ok: bool
    failed_part: str | None = None
    detail: str | None = None


def check_positive_density(spec: SpectralData) -> PositiveDensityVerdict:
    """Best-effort positivity check of the density on (0, inf), from its expansion.

    Three parts: a grid check on a bounded window, the sign of the dominant
    asymptotic coefficient for the far tail, and the first nonzero derivative
    at the origin for the near field.  A full decision procedure does not
    exist; the window and grid density are fixed constants.  The check can
    read a positive density as not positive where it vanishes at 0 to high
    order, so ``convert`` runs it only where the body's vector does not
    prove positivity: once, when that vector has a negative entry or the
    construction fails.  ``choose_mu`` runs it on every candidate residual.
    """
    lam1, n1 = spec.lambda1, spec.n1
    if lam1 <= 0:
        return PositiveDensityVerdict(False, "tail", "density diverges (unstable eigenvalue)")
    delta = _POS_DELTA_REL / lam1
    K = _POS_SPAN * n1 / lam1
    xs = np.linspace(delta, K, _POS_GRID_POINTS)
    vals = expansion_values(spec, xs)
    if vals.min() <= 0:
        i = int(vals.argmin())
        return PositiveDensityVerdict(
            False, "grid", f"f({xs[i]:.6g}) = {vals[i]:.6g} <= 0"
        )
    dom = spec.dominant_term
    c_top = dom.coeffs[-1]
    if not (abs(c_top.imag) <= 1e-9 * abs(c_top) and c_top.real > 0):
        return PositiveDensityVerdict(
            False, "tail", f"leading asymptotic coefficient {c_top:.6g} is not positive"
        )
    order, value = first_nonzero_derivative(spec) or (None, None)
    if value is None or value <= 0:
        return PositiveDensityVerdict(
            False, "origin", f"first nonzero derivative at 0 (order {order}) is {value}"
        )
    return PositiveDensityVerdict(True)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Grid and moment comparison between two representations."""

    max_rel_error: float
    grid: tuple[float, ...]
    moments_rel_error: float
    ok: bool


def _pdf_on(rep_or_ph, xs: np.ndarray) -> np.ndarray:
    if isinstance(rep_or_ph, PHRep):
        return np.asarray(phrep_pdf(rep_or_ph, xs))
    return pdf_eval_many(rep_or_ph, xs)


def _moments_of(rep_or_ph, k_max: int) -> np.ndarray:
    if isinstance(rep_or_ph, PHRep):
        return np.asarray(phrep_moments(rep_or_ph, k_max))
    return np.asarray(moments(rep_or_ph, k_max))


def check_equivalence(rep1, rep2, grid=None,
                      rel_tol: float = ToleranceConfig.equivalence_rel) -> EquivalenceVerdict:
    """Compare densities on a grid (by default 50 points on ``[0.025, 5]``
    times the mean of ``rep1``) and the first five raw moments."""
    m1 = _moments_of(rep1, 5)
    m2 = _moments_of(rep2, 5)
    if grid is None:
        grid = m1[0] * np.linspace(0.025, 5.0, 50)
    grid = np.asarray(grid, dtype=float)
    f1 = _pdf_on(rep1, grid)
    f2 = _pdf_on(rep2, grid)
    floor = max(float(np.abs(f1).max()), 1e-300) * 1e-9
    rel = float((np.abs(f1 - f2) / np.maximum(np.abs(f1), floor)).max())
    mrel = float((np.abs(m1 - m2) / np.maximum(np.abs(m1), 1e-300)).max())
    return EquivalenceVerdict(
        max_rel_error=rel,
        grid=tuple(float(x) for x in grid),
        moments_rel_error=mrel,
        ok=(rel <= rel_tol and mrel <= rel_tol),
    )


def ks_threshold(samples: int, quantile: float = 0.01) -> float:
    """Asymptotic one-sample Kolmogorov-Smirnov critical value."""
    coeff = {0.10: 1.22, 0.05: 1.36, 0.01: 1.63}[quantile]
    return coeff / np.sqrt(samples)


def _simulate_blocks(blocks, start_states: np.ndarray, rng) -> np.ndarray:
    """Absorption times of walkers started in the given states of the chain
    of ``blocks``.

    Every stage of a feedback-Erlang block has the block's rate, so the time
    spent in a block is one Gamma draw whose shape counts the stages run
    there: the ``b - p`` stages left from entry position ``p`` (0 for a
    walker coming from an earlier block), plus ``b`` per extra round, of
    which there are ``Geometric(1 - z) - 1``.  Cost O(walkers x blocks).
    """
    t = np.zeros(start_states.shape[0])
    first = 0
    for blk in blocks:
        here = start_states < first + blk.b
        stages = blk.b - np.maximum(start_states[here] - first, 0)
        if blk.z > 0:
            stages += blk.b * (rng.geometric(1.0 - blk.z, size=stages.size) - 1)
        t[here] += rng.gamma(stages, 1.0 / blk.sigma)
        first += blk.b
    return t


def simulate_absorption_times(ph: PHRep, samples: int, rng) -> np.ndarray:
    """Draw absorption times of the chain described by the structured form.

    The tail is one more block after the body, an Erlang chain without
    feedback, so every start draws one Gamma time per block from its own
    block on; the prefix adds an independent Erlang draw.
    """
    ini = np.concatenate([ph.head_gamma, ph.tail_weights])
    ini = ini / ini.sum()
    cum = np.cumsum(ini)
    picks = np.searchsorted(cum, rng.random(samples), side="right")
    picks = np.minimum(picks, ini.size - 1)
    tail = (FEBlock(ph.tail_n, ph.tail_lambda, 0.0),) if ph.tail_n else ()
    t = _simulate_blocks(ph.blocks + tail, picks, rng)
    if ph.prefix is not None:
        t += rng.gamma(ph.prefix.l, 1.0 / ph.prefix.mu, size=samples)
    return t


def _check_sample(ph: PHRep, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``monte_carlo_check``'s sorted absorption times and its cdf grid: 4,097
    points from 0 to 1.02 times the largest time."""
    if samples < 1:
        raise InvalidRepresentationError(f"monte_carlo_check: {samples} samples; need at least 1")
    rng = np.random.default_rng(seed)
    times = np.sort(simulate_absorption_times(ph, samples, rng))
    return times, np.linspace(0.0, float(times[-1]) * 1.02, 4097)


def _ks_statistic(times: np.ndarray, grid: np.ndarray, cdf_grid: np.ndarray) -> float:
    """KS statistic of sorted ``times`` against the distribution function
    interpolated linearly between its values ``cdf_grid`` on ``grid``."""
    F = np.interp(times, grid, cdf_grid)
    i = np.arange(1, times.size + 1)
    d_plus = np.abs(i / times.size - F).max()
    d_minus = np.abs(F - (i - 1) / times.size).max()
    return float(max(d_plus, d_minus))


def monte_carlo_check(ph: PHRep, samples: int = 100_000, seed: int = 0) -> float:
    """One-sample KS statistic of simulated absorption times against the
    structured distribution function.  Deterministic per seed.

    The distribution function is ``phrep_cdf_grid`` on a uniform grid of
    4,097 points, ``x_j = j h``.  Up to ``tail._SPARSE_STATES`` states its
    rule takes the running sum of the masses absorbed in one step ``h``,
    swept through the powers of ``exp(B h)``, wherever that is priced below
    the Poisson sums, as on every output the benchmark checks; above, the
    Poisson sums.
    """
    times, grid = _check_sample(ph, samples, seed)
    return _ks_statistic(times, grid, phrep_cdf_grid(ph, grid))
