"""Erlang-tail extension: make the initial vector nonnegative.

Appending a chain of ``n`` exponential states of rate ``lam`` to a monocyclic
representation transforms the initial vector through powers of
``M = I + G/lam``.  For ``tau = n/lam`` fixed and ``lam`` large enough both
parts of the transformed vector are positive: the tail entries are
approximate density samples ``f(k/lam)/lam`` and the head entries approach
``gamma exp(G tau) > 0``.  The certified rates come from the approximation
bound ``|e^z - (1+z/n)^n| <= r^2 e^r / (2n)`` for ``|z| <= r``.  The bound
proves that a tail exists, but can overshoot by orders of magnitude (950,965
states where 32 suffice on the paper's example).  The transformed vector
itself certifies a tail, so ``smallest_tail`` searches first, without the
bound, under ``_SEARCH_JUMPS`` jumps; only a search that finds nothing needs
the certificate (``find_tau``, ``compute_bounds``), and then the search runs
again below the certified tail, which it applies when nothing smaller
passes.  One step, ``_swept``, sweeps and tests every candidate, the
certified tail included.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import expm
from scipy.special import gammainc, gammaln, roots_legendre

from .config import DEFAULT_TOL, ToleranceConfig
from .core import mat_norm_inf, moment_series, vec_norm1
from .errors import (
    InvalidRepresentationError,
    NumericError,
    PositiveDensityError,
)
from .monocyclic import FEBlock, MonocyclicRep, chain_generator
from .spectral import SpectralData, expansion_values

__all__ = [
    "BoundsReport",
    "TailChoice",
    "PHRep",
    "find_tau",
    "compute_bounds",
    "smallest_tail",
    "append_tail",
    "phrep_pdf",
    "phrep_moments",
    "phrep_cdf_grid",
    "to_dense",
]


@dataclass(frozen=True)
class BoundsReport:
    """Scalars of the tail-rate derivation.

    ``lambda_prime`` keeps the head block positive, ``lambda_dprime`` keeps
    the sampled tail weights positive; ``rate`` is their maximum (optionally
    rounded up) and ``n = ceil(tau * rate)``.
    """

    tau: float
    g: float
    gamma_norm: float
    eps1: float
    eps2: float
    lambda_prime: float
    lambda_dprime: float
    rate: float
    n: int


@dataclass(frozen=True)
class TailChoice:
    """A tail: horizon ``tau``, ``rate`` and order ``n``, and the jumps the
    search that chose it swept (0 for a tail no search chose)."""

    tau: float
    rate: float
    n: int
    jumps: int = 0

    @classmethod
    def certified(cls, bounds: BoundsReport) -> "TailChoice":
        return cls(bounds.tau, bounds.rate, bounds.n)


@dataclass(frozen=True)
class DeconvParams:
    """Erlang factor split off in front of the distribution: length and rate."""

    l: int
    mu: float

    def __post_init__(self):
        if self.l < 0 or int(self.l) != self.l:
            raise InvalidRepresentationError(f"DeconvParams: l must be a nonnegative integer, got {self.l}")
        if self.l > 0 and not 0 < self.mu < np.inf:
            raise InvalidRepresentationError(f"DeconvParams: mu must be positive and finite, got {self.mu}")


@dataclass(frozen=True, eq=False)
class PHRep:
    """Markovian representation: optional Erlang prefix, feedback-Erlang body,
    and an Erlang tail, never stored densely.

    ``tail_weights`` follows the transformed-vector layout left to right:
    entry ``k`` is ``gamma (I + G/lam)^(n-1-k) (-G 1) / lam`` and starts the
    absorption path ``n - k`` exponential stages before the end.  A prefix
    of length 0 is stored as ``None``.
    """

    head_gamma: np.ndarray
    blocks: tuple[FEBlock, ...]
    tail_lambda: float
    tail_n: int
    tail_weights: np.ndarray
    prefix: DeconvParams | None = None
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        head = np.asarray(self.head_gamma, dtype=float)
        w = np.asarray(self.tail_weights, dtype=float)
        u = sum(b.b for b in self.blocks)
        if head.shape != (u,):
            raise InvalidRepresentationError(
                f"PHRep: head vector length {head.shape} does not match blocks ({u} states)"
            )
        if self.tail_n != w.shape[0]:
            raise InvalidRepresentationError(
                f"PHRep: tail_n={self.tail_n} but {w.shape[0]} weights given"
            )
        if not (np.isfinite(head).all() and np.isfinite(w).all() and np.isfinite(self.tail_lambda)):
            raise InvalidRepresentationError("PHRep: non-finite entries")
        if self.tail_n > 0 and not self.tail_lambda > 0:
            raise InvalidRepresentationError("PHRep: tail rate must be positive")
        if head.size and head.min() < 0:
            raise InvalidRepresentationError(f"PHRep: negative head entry {head.min()}")
        if w.size and w.min() < 0:
            raise InvalidRepresentationError(f"PHRep: negative tail weight {w.min()}")
        total = head.sum() + w.sum()
        if abs(total - 1.0) > self.tol.alpha_sum:
            raise InvalidRepresentationError(f"PHRep: initial mass sums to {total}")
        if self.prefix is not None:
            if not isinstance(self.prefix, DeconvParams):
                raise InvalidRepresentationError(f"PHRep: prefix must be DeconvParams, got {self.prefix!r}")
            if self.prefix.l == 0:
                object.__setattr__(self, "prefix", None)
        head = np.array(head)
        head.setflags(write=False)
        w = np.array(w)
        w.setflags(write=False)
        object.__setattr__(self, "head_gamma", head)
        object.__setattr__(self, "tail_weights", w)
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def u(self) -> int:
        return sum(b.b for b in self.blocks)

    @property
    def prefix_length(self) -> int:
        return self.prefix.l if self.prefix is not None else 0

    @property
    def order(self) -> int:
        return self.prefix_length + self.u + self.tail_n

    @property
    def lambda1(self) -> float:
        return self.blocks[0].sigma

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense body generator (feedback-Erlang blocks only)."""
        return chain_generator(self.blocks)


def _behind_prefix(prefix: DeconvParams | None, Q: np.ndarray, start: np.ndarray):
    """Initial vector and generator of the Erlang ``prefix`` in front of the
    chain ``Q``; ``(start, Q)`` without a prefix.

    The prefix starts with all of ``start``'s mass, and its last state feeds
    ``Q`` in proportion to ``start``.
    """
    start = np.asarray(start, dtype=float)
    if prefix is None:
        return start, Q
    l, mass = prefix.l, start.sum()
    B = np.zeros((l + Q.shape[0],) * 2)
    B[:l, :l] = FEBlock(l, prefix.mu, 0.0).matrix()
    B[l:, l:] = Q
    B[l - 1, l:] = prefix.mu * start / mass
    b = np.zeros(B.shape[0])
    b[0] = mass
    return b, B


# in units of the input's mean (``MERep.mean_scale``): 1e15 over the mean
_LOG_RATE_LIMIT = math.log(1e15)


def _log_rates(gn: float, g: float, tau: float, eps1: float,
               eps2: float) -> tuple[float, float]:
    """``(log lambda', log lambda'')``: the certified rates that keep the head
    block and the sampled tail weights positive."""
    log_lp = math.log(gn) + 2 * math.log(g * tau) + g * tau - math.log(2 * eps1 * tau)
    log_lpp = math.log(gn) + g * tau + math.log(tau) + 3 * math.log(g) - math.log(2 * eps2)
    return log_lp, log_lpp


def _check_rates(log_lp: float, log_lpp: float) -> None:
    if max(log_lp, log_lpp) > _LOG_RATE_LIMIT:
        raise NumericError(
            "compute_bounds: certified tail rate exceeds 1e15; the representation "
            "is numerically out of reach",
            detail={"log_lambda_prime": log_lp, "log_lambda_dprime": log_lpp},
        )


def _eps2(spec: SpectralData, tau: float, g: float, tol: ToleranceConfig) -> float:
    """Certified ``eps2``: the safety-shrunk grid infimum of the density on ``[0, tau]``."""
    xs = np.linspace(0.0, tau, max(10 * math.ceil(g * tau), 10))
    return tol.eps2_safety * float(expansion_values(spec, xs).min())


def _order(tau: float, rate: float) -> int:
    """``ceil(tau * rate)``, forgiving the rounding of a product meant exact."""
    return math.ceil(tau * rate - 1e-9 * max(1.0, tau * rate))


# the ladder's lowest rung: (n1 / lambda1) 2^-12.  On the 399 inputs of
# scripts/tail_census.py that need a tail, find_tau chose rungs -7 to 0 when
# it walked down from rung 0, and visited none below -11.
_LOWEST_RUNG = -12


def _ladder(mono: MonocyclicRep, tol: ToleranceConfig):
    """Rungs ``tau = (n1/lambda1) 2^k``, ``k = _LOWEST_RUNG`` up to
    ``max_doublings - 1``, in ascending order, each with the head's limit
    ``gamma exp(G tau)``.  One ``expm`` at the lowest rung; each rung's
    ``exp(G tau)`` above it is the square of the one below."""
    tau = mono.n1 / mono.lambda1 * 2.0**_LOWEST_RUNG
    E = expm(mono.matrix * tau)
    for _ in range(_LOWEST_RUNG, tol.max_doublings):
        yield tau, mono.gamma @ E
        tau, E = 2 * tau, E @ E


def find_tau(mono: MonocyclicRep, spec: SpectralData,
             tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Pick a horizon ``tau`` with ``gamma exp(G tau)`` entrywise positive.

    Climbs ``_ladder``, skipping rungs where that vector has a nonpositive
    entry, and keeps the feasible rung with the cheapest rate
    ``compute_bounds`` would certify (``spec`` is the expansion of the
    density ``mono`` realizes), whatever the signs of ``gamma``.  That rate
    grows like ``exp(g tau)``, so the climb stops 3 (in log) past the
    cheapest, or where even ``eps1 = ||gamma||_1``, which no entry of the
    vector exceeds, would put ``lambda'`` past the limit.
    """
    if mono.gamma is None:
        raise InvalidRepresentationError("find_tau: gamma not set")
    if mono.gamma[0] <= 0:
        raise InvalidRepresentationError(
            f"find_tau: first coordinate of gamma must be positive, got {mono.gamma[0]}"
        )
    g = mat_norm_inf(mono.matrix)
    gn = vec_norm1(mono.gamma)
    best, best_cost = None, math.inf
    for tau, head in _ladder(mono, tol):
        if best is not None and _log_rates(gn, g, tau, gn, math.inf)[0] > _LOG_RATE_LIMIT:
            break
        e1 = float(head.min())
        if e1 <= 0:
            continue
        # a lambda' past the limit alone rules the rung out before its eps2
        # grid is built
        cost = math.inf
        if _log_rates(gn, g, tau, e1, math.inf)[0] <= _LOG_RATE_LIMIT:
            e2 = _eps2(spec, tau, g, tol)
            cost = max(_log_rates(gn, g, tau, e1, e2)) if e2 > 0 else math.inf
        if best is None or cost < best_cost:
            best, best_cost = tau, cost
        elif cost > best_cost + 3.0:
            # well past the minimum: the growing exp(g tau) dominates
            break
    if best is None:
        raise NumericError(
            "find_tau: gamma exp(G tau) has a nonpositive entry on every rung tau = (n1/lambda1) "
            f"2^k, k = {_LOWEST_RUNG} to {tol.max_doublings - 1} ({tol.max_doublings - _LOWEST_RUNG} rungs)"
        )
    return best


def compute_bounds(
    mono: MonocyclicRep,
    tau: float,
    spec: SpectralData,
    *,
    tol: ToleranceConfig = DEFAULT_TOL,
    gamma_norm: float | None = None,
    eps1: float | None = None,
    eps2: float | None = None,
    round_rate_to: float | None = None,
) -> BoundsReport:
    """Derive the certified tail rate and order for a given ``tau``.

    ``eps1`` is the smallest entry of ``gamma exp(G tau)``; ``eps2`` a safety-
    shrunk grid infimum on ``[0, tau]`` of the expansion ``spec``, the density
    ``mono`` realizes.  The keyword overrides substitute externally supplied
    constants for the computed ones (used to reproduce published figures);
    ``round_rate_to`` rounds the applied rate up to the next multiple, which
    is always safe.
    """
    if mono.gamma is None:
        raise InvalidRepresentationError("compute_bounds: gamma not set")
    G = mono.matrix
    g = mat_norm_inf(G)
    gn = float(gamma_norm) if gamma_norm is not None else vec_norm1(mono.gamma)

    e1_computed = float((mono.gamma @ expm(G * tau)).min())
    if e1_computed <= 0:
        raise InvalidRepresentationError(
            f"compute_bounds: gamma exp(G tau) has minimum {e1_computed} <= 0; "
            "tau must come from find_tau"
        )
    e1 = float(eps1) if eps1 is not None else e1_computed
    # lambda' needs no density values: reject it before building the eps2 grid
    _check_rates(*_log_rates(gn, g, tau, e1, math.inf))

    if eps2 is not None:
        e2 = float(eps2)
    else:
        e2 = _eps2(spec, tau, g, tol)
        if e2 <= 0:
            raise PositiveDensityError(
                f"density is not positive on [0, {tau}] (safety-shrunk grid "
                f"minimum {e2:.3e}); an Erlang factor may need splitting off first"
            )

    log_lp, log_lpp = _log_rates(gn, g, tau, e1, e2)
    _check_rates(log_lp, log_lpp)
    lp = math.exp(log_lp)
    lpp = math.exp(log_lpp)
    rate = max(lp, lpp)
    if round_rate_to:
        rate = math.ceil(rate / round_rate_to) * round_rate_to
    return BoundsReport(
        tau=tau, g=g, gamma_norm=gn, eps1=e1, eps2=e2,
        lambda_prime=lp, lambda_dprime=lpp, rate=float(rate), n=_order(tau, rate),
    )


# Costs of the dense sweep, in units of one entry of a vector-matrix product
# (about 0.16 ns): a product costs u^2 plus _PRODUCT_OVERHEAD, a squaring
# u^3/4 plus _SQUARE_OVERHEAD (1 BLAS thread, 2-core x86: a product 0.9 us at
# u = 8 and 6.4 us at u = 190, a squaring 290 us at u = 190).  At small u a
# squaring costs a few products: the least-squares fit of interleaved sweeps
# below measured it at 1.27 us (2.6 products) at 8 states and 1.67 us (2.9)
# at 20, and P @ P timed alone took 2.2-2.9 products at 4-20 states.
# A chain has about two nonzeros per row, so above _SPARSE_STATES the sweep
# takes one sparse product per jump instead: O(u) with no squaring, against
# O(u^3) squarings, but 10.5, 11.1, 12.1 and 16.2 us per jump at 240, 305,
# 600 and 1,200 states, priced _SPARSE_PRODUCT + _SPARSE_ENTRY u.  Medians of
# sweeps of 26 to 512 jumps over one feedback-Erlang block: up to 224 states
# the dense sweep is as fast or faster at every length (at 224, 0.47 against
# 0.88 ms for 26 jumps, 2.7 against 2.8 ms for 256); at 256-288 it loses up
# to 27% at 256-512 jumps, though it wins 7 times at 8,192; at 500-630 it
# loses 1.6-4 times at 128-2,048 jumps.  The giant phase also costs a fixed
# _GIANT_OVERHEAD, about 7 small products: the squaring loop, the product
# giants @ babies.T and their arrays (a least-squares fit of interleaved
# sweeps of 8 to 128 jumps over 8 and 20 states: 3.3 and 3.9 us, against
# 0.49 and 0.57 us per product).
_PRODUCT_OVERHEAD = 6000
_SQUARE_OVERHEAD = 16_000
_GIANT_OVERHEAD = 40_000
_SPARSE_STATES = 224
_SPARSE_PRODUCT = 62_000
_SPARSE_ENTRY = 33


def _baby_steps(n: int, u: int, head: bool = True) -> tuple[int, float]:
    """Baby steps ``c`` of the dense sweep of ``n`` jumps over ``u`` states,
    and the sweep's cost: the power of two below ``n`` whose
    ``c + (1 + head) (ceil(n/c) - 1)`` products, ``log2 c`` squarings and
    giant phase cost least, or ``n``, one product per jump, when that costs
    less."""
    product, square = u * u + _PRODUCT_OVERHEAD, u**3 / 4 + _SQUARE_OVERHEAD
    best, best_cost = n, n * product
    c, k = 2, 1
    while c < n:
        cost = (c + (1 + head) * (-(-n // c) - 1)) * product + k * square + _GIANT_OVERHEAD
        if cost < best_cost:
            best, best_cost = c, cost
        c, k = 2 * c, k + 1
    return best, best_cost


def _sweep_cost(n: int, u: int) -> float:
    """Price of ``_tail_sweep`` of ``n`` jumps over ``u`` states without
    the head, by the stepping it takes: the dense sweep's ``_baby_steps``
    price, or above ``_SPARSE_STATES`` one sparse product per jump."""
    if u > _SPARSE_STATES:
        return n * (_SPARSE_PRODUCT + _SPARSE_ENTRY * u)
    return _baby_steps(n, u, head=False)[1]


def _uniformized(Q: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The chain ``Q`` uniformized at ``rate``: the one-jump matrix
    ``M = I + Q/rate`` and the per-jump exit probabilities
    ``e = max(-Q 1, 0)/rate``."""
    u = Q.shape[0]
    # rows without an exit may sum to -1e-17: a negative q_j has no logarithm
    return np.eye(u) + Q / rate, np.maximum(-(Q @ np.ones(u)), 0.0) / rate


def _tail_sweep(start: np.ndarray, M: np.ndarray, col: np.ndarray, n: int, head: bool = True):
    """Left-to-right products of ``start`` through the powers of ``M``.

    Returns ``start M^n`` (``None`` unless ``head``) and the scalars
    ``q[j] = start M^j col`` for ``j = 0..n-1``.  On a chain uniformized at
    ``rate`` (``_uniformized``) ``q[j]`` is the probability of leaving it at
    jump ``j + 1``; on the step ``M = exp(B h)`` of a grid, with ``col`` the
    mass one step absorbs or the exit rates, it is the grid's cdf increment
    or density.  Up to ``_SPARSE_STATES`` states, by baby and giant steps:
    the ``c`` rows ``start M^j`` (``j < c``) and the ``m = ceil(n/c)``
    columns ``P^i col`` of ``P = M^c`` give ``q[c i + j]`` in one product,
    and ``start M^n = start M^(n - c (m-1)) P^(m-1)``;
    ``c = _baby_steps(n, u, head)``, so about ``2 sqrt(n)`` products of
    O(u^2), ``3 sqrt(n)`` with the head, and ``log2 c`` squarings of O(u^3),
    and ``c = n`` is one product per jump without ``P``.  Above, one sparse
    product per jump: O(n u).
    """
    u = M.shape[0]
    if u > _SPARSE_STATES:
        # imported here, as only long bodies need it: it adds about 40 ms to
        # importing the package
        from scipy.sparse import csr_matrix

        step = csr_matrix(M.T).dot
        q = np.empty(n)
        v = np.array(start, dtype=float)
        for j in range(n):
            q[j] = v @ col
            v = step(v)
        return (v if head else None), q
    c = _baby_steps(n, u, head)[0]
    m = -(-n // c)
    # rows start M^j for j < c (and c, for the head), and rows P^i col for
    # i < m, each written in place from the one before
    babies, giants = np.empty((c + head, u)), np.empty((m, u))
    babies[0], giants[0] = start, col
    step = M.T.dot
    for prev, row in zip(babies, babies[1:]):
        step(prev, out=row)
    if m > 1:
        # P = M^c by squarings (c is a power of two).  Squaring entries below
        # 1e-150 makes subnormal numbers, which are slow (the squarings of
        # the cdf grid's step E at 190 states took up to 1.3 ms each with
        # them, 0.22 ms without), so they are zeroed after each squaring once
        # they can occur.  For M >= 0 a nonzero entry of M^(2^k) is at least
        # low^(2^k), low the smallest nonzero entry of M (where M has
        # negative entries the bound may fail, which costs only time)
        P, low = M, np.abs(M[M != 0]).min(initial=np.inf)
        for _ in range(c.bit_length() - 1):
            P = P @ P
            low *= low
            if low < 1e-150:
                P[np.abs(P) < 1e-150] = 0.0
        for prev, row in zip(giants, giants[1:]):
            P.dot(prev, out=row)
    q = (giants @ babies[:c].T).ravel()[:n]
    if not head:
        return None, q
    v = babies[n - c * (m - 1)]
    if m > 1:
        step = P.T.dot
        for _ in range(m - 1):
            v = step(v)
    return np.array(v), q


def _swept(mono: MonocyclicRep, rate: float, n: int, tol: ToleranceConfig):
    """Sweep the tail ``(rate, n)`` on the body.  Returns the tailed
    representation, with the transformed vector's entries inside the slack
    ``markov_slack_rel ||gamma||_1`` clipped to zero, or ``None`` when an
    entry is below it or the clipped entries sum to more than
    ``alpha_sum / 2 * ||gamma||_1``; and that vector ``(head, q)``.

    Clipping a weight ``w < 0`` moves the distribution by at most ``|w|`` in
    total variation, as each state's part is a sub-probability, so the sum
    bounds what the clip changes; over a long tail entries each inside the
    slack can add up past the mass check of ``PHRep``."""
    head, q = _tail_sweep(mono.gamma, *_uniformized(mono.matrix, rate), n)
    norm = vec_norm1(mono.gamma)
    if (min(head.min(), q.min()) <= -tol.markov_slack_rel * norm
            or -(head[head < 0].sum() + q[q < 0].sum()) > tol.alpha_sum / 2 * norm):
        return None, head, q
    weights = np.clip(q, 0.0, None)[::-1].copy()
    return PHRep(np.clip(head, 0.0, None), mono.blocks, rate, n, weights, tol=tol), head, q


# The jumps a search without a certificate may sweep.  The largest search of
# the 3,199 inputs of scripts/tail_census.py sweeps 517 jumps, so 2^14 is 28
# times that; where it fails, the certificate prices the search's next cap.
_SEARCH_JUMPS = 2**14


def _search(mono: MonocyclicRep, cap: int, budget: int, tol: ToleranceConfig):
    """The smallest tail of at most ``cap`` states whose transformed vector
    passes ``_swept``, found within ``budget`` jumps in all: its
    ``TailChoice`` and representation, or ``None`` for both; and the jumps
    swept.

    The rungs ``tau`` of ``_ladder`` go in ascending order; one where
    ``gamma exp(G tau)``, the head's limit, has a nonpositive entry is
    skipped.  On a rung ``n`` starts at the smallest power of two with
    ``n / tau`` at least the body's largest rate, so ``M = I + G/rate`` is
    nonnegative, and doubles until the vector passes or ``n`` reaches the
    best found or passes the cap.  The search ends at the first rung whose
    rate bound alone does so, or before its sweeps would pass the budget.
    """
    sigma = max(blk.sigma for blk in mono.blocks)
    tail, ph, jumps = None, None, 0
    for tau, head in _ladder(mono, tol):
        if math.ceil(sigma * tau) > cap:
            break
        if float(head.min()) <= 0:
            continue
        n = 1
        while n < sigma * tau:
            n *= 2
        while n <= cap and jumps + n <= budget:
            found = _swept(mono, n / tau, n, tol)[0]
            jumps += n
            if found is None:
                n *= 2
            else:
                tail, ph, cap = TailChoice(tau, n / tau, n), found, n - 1
        if n <= cap:
            break  # the next sweep would pass the budget
    return tail, ph, jumps


def smallest_tail(mono: MonocyclicRep, spec: SpectralData, max_n: int,
                  tol: ToleranceConfig = DEFAULT_TOL
                  ) -> tuple[BoundsReport | None, TailChoice, PHRep | None]:
    """The certificate, the tail applied and its representation, in four
    steps: ``_search`` under ``min(_SEARCH_JUMPS, max_n)`` jumps, with no
    certificate (``None`` when it finds a tail); else ``find_tau`` and
    ``compute_bounds`` on the expansion ``spec`` the body realizes;
    ``_search`` below the certified ``n``; and the certified tail, through
    ``append_tail``, when that finds nothing either.

    Every tail on the body gives exactly the distribution the body's vector
    gives, and it is Markovian when its transformed vector is nonnegative;
    so that vector certifies a tail, and the bound only caps the search.
    No tail above ``max_n`` is swept: a certified one above it comes with
    ``None``.  The tail's ``jumps`` are the last search's, and a
    ``NumericError`` of the certificate names the first search's budget.
    """
    if mono.gamma is None:
        raise InvalidRepresentationError("smallest_tail: gamma not set")
    budget = min(_SEARCH_JUMPS, max_n)
    tail, ph, jumps = _search(mono, budget, budget, tol)
    if ph is not None:
        return None, replace(tail, jumps=jumps), ph
    try:
        bounds = compute_bounds(mono, find_tau(mono, spec, tol), spec, tol=tol)
    except NumericError as exc:
        raise NumericError(f"{exc}; no tail passed a search of {max(budget, 0)} jumps",
                           detail=exc.detail) from exc
    tail, ph, jumps = _search(mono, min(bounds.n - 1, max_n), min(bounds.n, max_n), tol)
    if ph is None:
        tail = TailChoice.certified(bounds)
        if tail.n <= max_n:
            ph = append_tail(mono, tail, tol)
    return bounds, replace(tail, jumps=jumps), ph


def append_tail(mono: MonocyclicRep, tail: TailChoice,
                tol: ToleranceConfig = DEFAULT_TOL) -> PHRep:
    """Extend the monocyclic representation with the Erlang tail ``tail`` of
    at least one state: the certified one, ``TailChoice.certified(bounds)``,
    or any other.

    Entries of the transformed vector within the negative slack window are
    clipped to zero; a genuinely negative entry, or clipped entries that sum
    past ``_swept``'s bound, raise a ``NumericError`` whose ``detail`` holds
    the smallest head and tail entries, each as ``(index, value)``.
    """
    if mono.gamma is None:
        raise InvalidRepresentationError("append_tail: gamma not set")
    if tail.n < 1:
        raise InvalidRepresentationError(f"append_tail: a tail needs at least one state, got {tail.n}")
    ph, head, q = _swept(mono, tail.rate, tail.n, tol)
    if ph is None:
        raise NumericError(
            f"append_tail: transformed vector of the tail (rate {tail.rate!r}, n = {tail.n}) is "
            f"negative: smallest head entry {head.min():.3e}, smallest tail entry {q.min():.3e}",
            detail={"head_min": (int(head.argmin()), float(head.min())),
                    "tail_min": (int(q.argmin()), float(q.min())), "rate": tail.rate},
        )
    return ph


# ---------------------------------------------------------------------------
# structured evaluation
#
# Every path through a PHRep makes a Poisson number of jumps once its chain is
# uniformized, so pdf and cdf are windowed Poisson sums of nonnegative
# jump-count sequences, each swept by ``_tail_sweep``, which also builds the
# tail.  The one chain sweeps prefix, body and tail together (``to_dense``)
# at their largest rate.  The convolution never densifies the tail: its
# weights are summed at ``tail_lambda``, the prefix and body (the "slow
# chain") at their own largest rate, and where a path crosses from one rate to
# the other the two parts meet in a convolution done by quadrature.  The
# evaluators keep only the jump sequence, so they sweep without the head.
#
# A uniform grid ``x_j = x0 + j h`` (an ``np.linspace``, as the benchmark,
# the command line and the Monte Carlo check pass) needs no Poisson sum on an
# output the dense sweep takes: ``_grid_values`` runs the same sweep through
# the powers of one step ``E = exp(B h)`` from ``b exp(B x0)``, with the exit
# rates as the column for the density and the mass one step absorbs for the
# cdf.  ``_cheapest_path`` picks among the grid, one chain and convolution.

_GL_NODES = 96
_GLX, _GLW = roots_legendre(_GL_NODES)
# Poisson terms per vectorized step; bounds the working memory of one call.
# The step works in place.  Against out-of-place steps of 1 << 16 terms, this
# cut the minor page faults of three 4,097-point cdf grids on the long-cycle
# bodies (u = 64, 127, 190) from about 8,900 to 700-1,200, and their time from
# 0.079-0.089 to 0.061-0.066 s (2-core x86, numpy 2.4).
_CHUNK = 1 << 15
_MAX_JUMPS = 10_000_000
_PANEL_SPAN = 16.0
# The one chain is dense: above _DENSE_STATES (32 MB) it is never built.
_DENSE_STATES = 2048
# _cheapest_path prices every path in _baby_steps' units.  The constants come
# from a least-squares fit (weighted by 1/time) to 1,784 timings of the grid
# and the Poisson paths (1 BLAS thread, shared 2-core x86): 74 outputs of 3 to
# 190 states, the benchmark's and the census's, on grids of 2 to 4,097 points
# over 4 and 20 means, from 0 and from 5% of the span.  Their sweeps took
# 0.13-0.15 ns per unit; a Poisson term 5.8 ns (_TERM_COST); an expm 18 us
# plus 3.5 ns times u^3/4, whatever its norm (2.3-5.5 ms at 190 states, timed
# alone); and the Poisson paths 35 us more of fixed cost than the grid path
# besides its expm.  Summed over those timings, the grid rule's choices cost
# 0.5% more than the faster path each time, and the Poisson sums alone 3.7
# times as much.
_TERM_COST = 38
_EXPM_OVERHEAD = 118_000
_EXPM_CUBES = 23
_POISSON_OVERHEAD = 230_000


def _window(c):
    """Jump counts ``[lo, hi]`` outside of which Poisson(c) has negligible mass.

    ``c -/+ (10 sqrt(c) + 25)``: ten standard deviations for large ``c``, in
    the spirit of the Fox & Glynn (1988) truncation bounds, and at least 25
    jumps for small ``c``.
    """
    c = np.asarray(c, dtype=float)
    half = 10.0 * np.sqrt(c) + 25.0
    hi = np.ceil(c + half)
    if not np.all(hi < 2.0**63):  # compared before the cast to int64, which wraps
        raise NumericError(f"PHRep evaluation: over 2^63 jumps at rate x = {np.max(c):g}")
    return np.maximum(np.floor(c - half), 0.0).astype(np.int64), hi.astype(np.int64)


def _sequence_length(c: float) -> int:
    """Jump counts a sequence needs for Poisson sums at ``rate x <= c``: one
    past ``_window(c)``'s high end, in scalar arithmetic (the same bits, in
    1 us against 8 through ``_window``)."""
    hi = c + (10.0 * math.sqrt(c) + 25.0)
    if not hi < 2.0**63:
        raise NumericError(f"PHRep evaluation: over 2^63 jumps at rate x = {c:g}")
    return math.ceil(hi) + 1


def _fewest_terms(c: float) -> float:
    """A lower bound on the jump counts in ``_window(c)``, concave and
    increasing in ``c``: ``min(2 half, c + half) + 1``, ``half`` as there."""
    half = 10.0 * math.sqrt(c) + 25.0
    return min(2.0 * half, c + half) + 1.0


def _most_terms(c: float) -> float:
    """An upper bound on the jump counts in ``_window(c)``, concave in ``c``:
    ``min(2 half, c + half) + 3``, the rounding of both ends added."""
    return _fewest_terms(c) + 2.0


def _poisson_sum(seq: np.ndarray, rate: float, xs: np.ndarray, cdf: bool) -> np.ndarray:
    """Windowed Poisson sum of a nonnegative jump-count sequence at every x.

    pdf: ``rate sum_k seq_k Pois(k; rate x)``; cdf:
    ``sum_j Pois(j; rate x) (seq_0 + ... + seq_(j-1))``.  A term is
    ``exp(k log c - c + log(coef_k / k!))`` at ``c = rate x``; its exponent
    sums parts near ``c log c``, so its relative error grows like
    ``c log c 2^-53`` (against 40 digits, up to 2.9e-14 at ``c = 10``,
    2.4e-12 at 1e3, 6.1e-11 at 2e4, 2.9e-9 at 1e6): the one chain's cdf errs
    by 2.1e-11 at tail rate 1,024 on 20 means.
    """
    c = rate * xs
    coef = np.concatenate([[0.0], np.cumsum(seq)]) if cdf else rate * seq
    lo, hi = _window(c)
    sizes = np.maximum(np.minimum(hi, coef.size - 1) - lo + 1, 0)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    with np.errstate(divide="ignore"):
        # log(coef_k / k!), so that a term is exp(this + k log c - c)
        log_coef = np.log(coef) - gammaln(np.arange(coef.size) + 1.0)
    log_c = np.log(np.maximum(c, 1e-300))
    out = np.zeros(c.size)
    # the most terms a chunk takes: windows up to _CHUNK in all, or one longer
    ramp = np.arange(min(int(offs[-1]), max(_CHUNK, int(sizes.max(initial=0)))))
    a = 0
    while a < c.size:
        # consecutive points whose windows fit in one chunk (at least one)
        b = max(int(np.searchsorted(offs, offs[a] + _CHUNK, side="right")) - 1, a + 1)
        span = sizes[a:b]
        k = np.repeat(lo[a:b] - offs[a:b] + offs[a], span)
        k += ramp[: k.size]
        terms = np.repeat(log_c[a:b], span)
        terms *= k
        terms += log_coef[k]
        terms -= np.repeat(c[a:b], span)
        np.exp(terms, out=terms)
        nonempty = np.flatnonzero(span)
        if nonempty.size:
            out[a + nonempty] = np.add.reduceat(terms, offs[a:b][nonempty] - offs[a])
        a = b
    if cdf:
        # jump counts past the sequence find all of its mass absorbed
        out += coef[-1] * gammainc(coef.size, c)
    return out


def _gl(lo, hi):
    """Gauss-Legendre nodes and weights on ``[lo, hi]``, one row per interval."""
    half = (np.asarray(hi, dtype=float) - lo) / 2.0
    return (lo + half)[..., None] + half[..., None] * _GLX, half[..., None] * _GLW


def _erlang(m: int, rate: float, t: np.ndarray, cdf: bool) -> np.ndarray:
    """Erlang(m, rate) density or distribution function at ``t >= 0``."""
    c = rate * t
    if cdf:
        return gammainc(m, c)
    return rate * np.exp((m - 1) * np.log(np.maximum(c, 1e-300)) - c - gammaln(m))


def _slow_rate(ph: PHRep) -> float:
    """Largest diagonal rate of the prefix and the body."""
    return max([blk.sigma for blk in ph.blocks] + ([ph.prefix.mu] if ph.prefix else []))


def _jump_sequence(start: np.ndarray, Q: np.ndarray, rate: float, x_max: float) -> np.ndarray:
    """The chain ``(start, Q)`` uniformized at ``rate``: ``s[k]``, the
    probability of leaving it at jump ``k + 1``, for every jump count with
    Poisson mass at some ``x <= x_max``."""
    length = _sequence_length(rate * x_max)
    if length > _MAX_JUMPS:
        raise NumericError(
            f"PHRep evaluation: {length} jumps needed at x = {x_max}, above the limit {_MAX_JUMPS}"
        )
    return _tail_sweep(start, *_uniformized(Q, rate), length, head=False)[1]


def _through_tail(xs: np.ndarray, slow, fast, breaks, width: float) -> np.ndarray:
    """``int slow(x - t) fast(t) dt`` over ``[breaks[0], min(x, breaks[-1])]``
    at every ``x``: a path's part before the tail against the tail.

    Composite Gauss-Legendre, with panels that break at ``breaks`` and span at
    most ``width`` in between.  Panels wholly below ``x`` share their nodes
    across all ``x``; only the panel that contains ``x`` gets fresh nodes, on
    ``[panel start, x]``.  ``slow`` and ``fast`` take flat arrays of times.
    """
    edges = [breaks[:1]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges.append(np.linspace(a, b, max(math.ceil((b - a) / width), 1) + 1)[1:])
    edges = np.concatenate(edges)

    out = np.zeros(xs.shape)
    t, w = _gl(edges[:-1], edges[1:])
    wf = w * fast(t.ravel()).reshape(t.shape)
    for p, b in enumerate(edges[1:]):
        past = np.flatnonzero(xs >= b)
        out[past] += slow((xs[past, None] - t[p]).ravel()).reshape(-1, _GL_NODES) @ wf[p]
    panel = np.searchsorted(edges, xs, side="right") - 1
    live = np.flatnonzero((panel >= 0) & (panel < edges.size - 1))
    t, w = _gl(edges[panel[live]], xs[live])
    inner = slow((xs[live, None] - t).ravel()).reshape(t.shape)
    out[live] += (w * fast(t.ravel()).reshape(t.shape) * inner).sum(axis=1)
    return out


def _progression(xs: np.ndarray) -> tuple[float, float] | None:
    """``(x0, h)`` when the points ``xs`` are ``x0 + j h``, ``j = 0..n-1``,
    with ``n >= 2`` and ``h > 0``, each to within 4 ulps of the largest (as
    ``np.linspace`` makes them); otherwise ``None``."""
    if xs.size < 2:
        return None
    x0 = float(xs[0])
    h = (float(xs[-1]) - x0) / (xs.size - 1)
    if not 0.0 < h < math.inf:  # also refuses NaN
        return None
    off = np.abs(xs - (x0 + h * np.arange(xs.size))).max()
    return (x0, h) if off <= 4 * np.spacing(float(xs[-1])) else None


def _expm_cost(u: int) -> float:
    """Price of one ``expm`` over ``u`` states, in ``_baby_steps``' units."""
    return _EXPM_OVERHEAD + _EXPM_CUBES * u**3 / 4


def _cheapest_path(ph: PHRep, xs: np.ndarray, grid: tuple[float, float] | None) -> str:
    """The path ``_evaluate`` takes on the nonempty ``xs``, the one priced
    lowest in ``_baby_steps``' units, with sweeps at ``_sweep_cost`` and
    each windowed Poisson term at ``_TERM_COST``:

    - ``"grid"``, the powers of one step on the uniform grid ``grid =
      (x0, h)``, up to ``_SPARSE_STATES`` states: one ``expm`` (two when
      ``x0 > 0``) and a sweep of ``xs.size`` steps;
    - ``"one chain"``, for a tailed output of up to ``_DENSE_STATES``
      states: a sweep of every state and its terms, at the largest rate;
    - ``"convolution"``, the last resort: the slow chain's sweep and terms,
      these times ``_GL_NODES`` with a tail, and the tail's terms, times
      ``_GL_NODES`` behind a prefix.  Without a tail it is the one chain.

    The first two are not taken where the one chain would pass
    ``_MAX_JUMPS`` jumps.  The prices read only the orders, ``xs.size``,
    whether ``x0 > 0`` and the rates times the points, so a power-of-two
    change of time unit keeps the choice.
    """
    slow, lam, order = _slow_rate(ph), ph.tail_lambda, ph.order
    x_max = float(xs.max() if grid is None else xs[-1])
    rate, body, has_head = max(slow, lam), order - ph.tail_n, ph.head_gamma.sum() > 0
    fits = rate * x_max < _MAX_JUMPS
    grid_price = one_chain = math.inf
    if grid is not None and fits and order <= _SPARSE_STATES:
        x0 = grid[0]
        grid_price = (1 + (x0 > 0)) * _expm_cost(order) + _baby_steps(xs.size, order, head=False)[1]
        if has_head:
            # bounds on the Poisson prices that size no window (20-50 us on
            # 16 points, about 0.2 ms on 4,097).  Either Poisson path sweeps
            # a chain that holds the prefix and the body, at a rate of at
            # least slow, so over _sequence_length(slow x_max) jumps or more,
            # and sums at every point x at least _fewest_terms(slow x) terms;
            # that is concave in x, so over the grid it sums to at least n
            # times its mean at the two ends.  Without a tail that chain at
            # slow is the only Poisson path, and its terms, at most
            # _most_terms(slow x), also concave, sum to at most n times their
            # bound at the grid's midpoint.
            c0, c1 = slow * x0, slow * x_max
            sweep = _POISSON_OVERHEAD + _sweep_cost(_sequence_length(c1), body)
            if grid_price < sweep + _TERM_COST * xs.size * (_fewest_terms(c0) + _fewest_terms(c1)) / 2:
                return "grid"
            if not ph.tail_n and grid_price > sweep + _TERM_COST * xs.size * _most_terms((c0 + c1) / 2):
                return "convolution"
    # the windowed Poisson terms at rate r over xs, of jumps below length;
    # each rate's windows are sized once
    windows = {}

    def terms(r, length=math.inf):
        if r not in windows:
            windows[r] = _window(r * xs)
        lo, hi = windows[r]
        return np.maximum(np.minimum(hi, length - 1) - lo + 1, 0).sum()

    convolution = _POISSON_OVERHEAD
    if ph.tail_n:
        convolution += _TERM_COST * (_GL_NODES if ph.prefix else 1) * terms(lam, ph.tail_n)
    if has_head:
        convolution += (_sweep_cost(_sequence_length(slow * x_max), body)
                        + _TERM_COST * (_GL_NODES if ph.tail_n else 1) * terms(slow))
    if ph.tail_n and fits and order <= _DENSE_STATES:
        one_chain = (_POISSON_OVERHEAD + _sweep_cost(_sequence_length(rate * x_max), order)
                     + _TERM_COST * terms(rate))
    prices = {"convolution": convolution, "one chain": one_chain, "grid": grid_price}
    return min(prices, key=prices.get)


def _grid_values(ph: PHRep, x0: float, h: float, n: int, cdf: bool) -> np.ndarray:
    """pdf or cdf at ``x_j = x0 + j h`` for ``j = 0..n-1``, by the powers of
    one step ``E = exp(B h)`` of the dense pair ``(b, B)``.

    From ``start = b exp(B x0)`` (``b`` itself at ``x0 = 0``),
    ``_tail_sweep`` through ``M = E`` gives the density
    ``start E^j t`` with ``t = -B 1``, and for the cdf the masses
    ``start E^j (1 - E 1)`` absorbed in ``(x_j, x_(j+1)]``; ``F`` is
    ``F(x0) = b 1 - start 1`` plus their running sum, nondecreasing and free
    of the cancellation in ``1 - survival``.
    """
    b, B = to_dense(ph)
    u = b.size
    ones = np.ones(u)
    # one product B h, so that a power-of-two change of the time unit leaves
    # E bit-identical.  E is dimensionless; its entries below 1e-150 (and
    # any negative rounding) are zeroed, since squaring them makes subnormal
    # numbers: E @ E took 1.0 ms at 190 states against 0.23 ms zeroed.
    E = expm(B * h)
    E[E < 1e-150] = 0.0
    start = b if x0 == 0 else np.maximum(b @ expm(B * x0), 0.0)
    if not cdf:
        return _tail_sweep(start, E, np.maximum(-(B @ ones), 0.0), n, head=False)[1]
    q = _tail_sweep(start, E, np.maximum((np.eye(u) - E) @ ones, 0.0), n - 1, head=False)[1]
    return np.clip(np.cumsum(np.concatenate([[b.sum() - start.sum()], q])), 0.0, 1.0)


def _evaluate(ph: PHRep, xs: np.ndarray, cdf: bool) -> np.ndarray:
    """pdf or cdf of the structured representation at every ``x >= 0``, by
    the path ``_cheapest_path`` prices lowest: the powers of one step where
    ``xs`` is a uniform grid, or the Poisson sums of the one chain or of the
    convolution."""
    if np.isnan(xs).any():
        raise InvalidRepresentationError("PHRep evaluation: x is NaN")
    if xs.size == 0:
        return np.zeros(0)
    grid = _progression(xs)
    path = _cheapest_path(ph, xs, grid)
    if path == "grid":
        return _grid_values(ph, *grid, xs.size, cdf)
    return _poisson_values(ph, xs, cdf, path == "one chain")


def _poisson_values(ph: PHRep, xs: np.ndarray, cdf: bool, one_chain: bool) -> np.ndarray:
    """pdf or cdf at every point of the nonempty ``xs`` by windowed Poisson
    sums: of the one chain, or of the slow chain convolved with the tail."""
    out = np.zeros(xs.shape)
    x_max = float(xs.max())
    if one_chain:
        b, B = to_dense(ph)
        rate = -B.diagonal().min()
        return _poisson_sum(_jump_sequence(b, B, rate, x_max), rate, xs, cdf)
    n, lam, weights = ph.tail_n, ph.tail_lambda, ph.tail_weights[::-1]
    if n:
        r_lo, r_hi = np.array(_window(n)) / lam
    if n and ph.prefix:
        # panels break where the mixture changes scale: its low-order Erlang
        # terms below 80/lam, and its edge inside the Erlang(n, lam) window
        l, mu = ph.prefix.l, ph.prefix.mu
        out += _through_tail(
            xs, lambda t: _erlang(l, mu, t, cdf), lambda t: _poisson_sum(weights, lam, t, False),
            np.unique(np.clip([0.0, 80.0 / lam, r_lo, r_hi], 0.0, r_hi)),
            _PANEL_SPAN / _slow_rate(ph),
        )
    elif n:
        out += _poisson_sum(weights, lam, xs, cdf)
    if ph.head_gamma.sum() > 0:
        # the slow chain: prefix then body, started from the head alone, as
        # paths from the prefix straight into the tail are summed above; its
        # s[k] is the probability of leaving the body (into the tail, or
        # absorbed when there is none) at jump k + 1
        rate = _slow_rate(ph)
        s = _jump_sequence(*_behind_prefix(ph.prefix, ph.matrix, ph.head_gamma), rate, x_max)
        if n:
            # one panel over the Erlang(n, lam) window
            out += _through_tail(xs, lambda t: _poisson_sum(s, rate, t, cdf),
                                 lambda t: _erlang(n, lam, t, False), [r_lo, r_hi], math.inf)
        else:
            out += _poisson_sum(s, rate, xs, cdf)
    return out


def phrep_pdf(ph: PHRep, x) -> float | np.ndarray:
    """Density of the structured representation at ``x`` (scalar or array).

    Computed by whichever path ``_cheapest_path`` prices lowest on ``x``:
    pointwise windowed Poisson sums, of one chain or of the slow chain
    convolved with the tail; or, where the points are a uniform grid
    ``x0 + j h`` (at least two, as ``np.linspace`` makes them) on an output
    of at most ``_SPARSE_STATES`` (224) states, the powers of one step
    ``exp(B h)``.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if xs.size and xs.min() < 0:
        raise InvalidRepresentationError("phrep_pdf: x must be >= 0")
    out = _evaluate(ph, xs, False)
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def _erlang_moments(order, rate: float, k_max: int) -> np.ndarray:
    """Rows k = 0..k_max of E[Erlang(order, rate)^k], vectorized over orders."""
    order = np.atleast_1d(np.asarray(order, dtype=float))
    out = np.ones((k_max + 1, order.size))
    acc = np.ones(order.size)
    for k in range(1, k_max + 1):
        acc = acc * (order + (k - 1)) / rate
        out[k] = acc
    return out


def _add_moments(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw moments of the sum of two independent parts, from theirs:
    ``sum_j C(k, j) a_j b_(k-j)`` (``a_0``, ``b_0`` are the parts' masses)."""
    return np.array([sum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1))
                     for k in range(len(a))])


def phrep_moments(ph: PHRep, k_max: int) -> list[float]:
    """Raw moments through the structure, never densifying the matrix."""
    # partial moments through the head: p[j] = j! * head (-G)^(-j) 1
    p = moment_series(ph.head_gamma, ph.matrix, k_max)
    inner = p
    if ph.tail_n:
        # column m - 1 holds Erlang(m, lam); the head's paths run through all n
        em = _erlang_moments(np.arange(1, ph.tail_n + 1), ph.tail_lambda, k_max)
        inner = _add_moments(p, em[:, -1]) + em @ ph.tail_weights[::-1]
    if ph.prefix:
        inner = _add_moments(_erlang_moments(ph.prefix.l, ph.prefix.mu, k_max)[:, 0], inner)
    return [float(v) for v in inner[1:]]


def phrep_cdf_grid(ph: PHRep, xs: np.ndarray) -> np.ndarray:
    """Distribution function at every point of ``xs``; 0 below the origin.

    Computed by the same paths as the density, chosen by the same prices,
    so the grid needs no particular spacing: pointwise Poisson sums, or on
    a uniform grid ``x0 + j h`` ``F(x0)`` plus the running sum of the
    masses absorbed per step ``exp(B h)``, nondecreasing by construction.
    """
    xs = np.maximum(np.asarray(xs, dtype=float), 0.0)
    return np.clip(_evaluate(ph, xs.ravel(), True), 0.0, 1.0).reshape(xs.shape)


def to_dense(ph: PHRep, limit: int = 10_000):
    """Materialize the full (vector, matrix) pair; refuses above ``limit`` states."""
    order = ph.order
    if order > limit:
        raise NumericError(
            f"to_dense: order {order} exceeds the densification limit {limit}"
        )
    tail = (FEBlock(ph.tail_n, ph.tail_lambda, 0.0),) if ph.tail_n else ()
    return _behind_prefix(ph.prefix, chain_generator(ph.blocks + tail),
                          np.concatenate([ph.head_gamma, ph.tail_weights]))
