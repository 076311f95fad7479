"""Markovian block bidiagonal generators built from feedback-Erlang blocks.

A feedback-Erlang block is a chain of ``b`` exponential states of rate
``sigma`` whose last state feeds back to the first with probability ``z``.
Its eigenvalues are ``-sigma (1 - z^(1/b) w)`` over the b-th roots of unity
``w``, equally spaced on a circle around ``-sigma``, so a block can embed any
complex conjugate pair whose real part decays strictly faster than the
dominant rate.  Chaining one block per eigenvalue instance yields a Markovian
matrix whose spectrum contains the source spectrum.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from math import atan, ceil, cos, pi, sin

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .core import mat_norm_inf
from .errors import DecViolationError, InvalidRepresentationError, NumericError
from .spectral import SpectralData, _jordan_pair, check_dec

__all__ = [
    "FEBlock",
    "MonocyclicRep",
    "chain_generator",
    "fe_block_for",
    "build_generator",
    "solve_transformation_matrix",
    "solve_gamma",
]


@dataclass(frozen=True)
class FEBlock:
    """Feedback-Erlang block parameters (chain length, rate, feedback probability)."""

    b: int
    sigma: float
    z: float

    def __post_init__(self):
        if self.b < 1 or int(self.b) != self.b:
            raise InvalidRepresentationError(f"FEBlock: b must be a positive integer, got {self.b}")
        if not 0 < self.sigma < np.inf:
            raise InvalidRepresentationError(f"FEBlock: sigma must be positive and finite, got {self.sigma}")
        if not (0 <= self.z < 1):
            raise InvalidRepresentationError(f"FEBlock: z must lie in [0, 1), got {self.z}")

    @property
    def degenerate(self) -> bool:
        return self.b == 1 and self.z == 0.0

    @property
    def r(self) -> float:
        """Dominant (largest real part) eigenvalue, always real."""
        return -self.sigma * (1.0 - self.z ** (1.0 / self.b))

    @property
    def exit_rate(self) -> float:
        return self.sigma * (1.0 - self.z)

    def keeps_dominant(self, lambda1: float) -> bool:
        """Whether ``-lambda1`` stays the dominant eigenvalue with this block
        chained in: the block is a single state of rate ``lambda1``, or its
        closed-form dominant eigenvalue ``r`` lies strictly below ``-lambda1``."""
        if self.degenerate and abs(self.sigma - lambda1) <= 1e-12 * lambda1:
            return True
        return self.r < -lambda1

    def matrix(self) -> np.ndarray:
        return chain_generator((self,))

    def eigenvalues(self) -> np.ndarray:
        k = np.arange(self.b)
        roots = self.z ** (1.0 / self.b) * np.exp(2j * pi * k / self.b)
        return -self.sigma * (1.0 - roots)


def fe_block_for(eigenvalue: complex, lambda1: float,
                 tol: ToleranceConfig = DEFAULT_TOL) -> FEBlock:
    """Block embedding one eigenvalue (or conjugate pair) of the source matrix.

    Real eigenvalues map to a single-state block.  A pair ``-a +/- ic`` needs
    its real part strictly below ``-lambda1``; the chain length is the
    smallest one keeping the block's own dominant eigenvalue below
    ``-lambda1``, and the rate and feedback follow from placing the pair on
    the block's eigenvalue circle.  The constructed block is checked against
    the closed form of its spectrum before being returned.
    """
    eigenvalue = complex(eigenvalue)
    a, c = -eigenvalue.real, abs(eigenvalue.imag)
    if c == 0.0:
        if a <= 0:
            raise InvalidRepresentationError(
                f"fe_block_for: real eigenvalue must be negative, got {eigenvalue}"
            )
        return FEBlock(1, a, 0.0)

    gap = a - lambda1
    if gap <= tol.eig_cluster_rel * max(abs(eigenvalue), lambda1):
        raise DecViolationError(
            f"complex pair {-a}+/-{c}j has real part at the dominant eigenvalue "
            f"-{lambda1}; no finite chain can embed it"
        )

    b = ceil(2 * pi / (pi - 2 * atan(c / gap)))
    for _ in range(64):
        if b < 3:
            b = 3
        theta = 2 * pi / b
        sigma = a + c * cos(theta) / sin(theta)
        rho = c / (sigma * sin(theta)) if sigma > 0 else 2.0
        # the block's dominant eigenvalue -sigma(1 - rho) must stay strictly
        # below -lambda1, and the feedback probability must be admissible
        if sigma > 0 and 0 <= rho < 1 and sigma * (1 - rho) > lambda1 * (1 + 1e-12):
            break
        b += 1
    else:
        raise NumericError(
            f"fe_block_for: no admissible chain length found for {eigenvalue}"
        )

    block = FEBlock(b, sigma, rho ** b)
    evs = block.eigenvalues()
    target = complex(-a, c)
    err = np.abs(evs - target).min()
    if err > tol.fe_eig_check * abs(target):
        raise NumericError(
            f"fe_block_for: constructed block misses {target} by {err:.3e}"
        )
    if not block.keeps_dominant(lambda1):
        raise NumericError(
            f"fe_block_for: block dominant eigenvalue {block.r} is not below "
            f"-{lambda1}"
        )
    return block


def chain_generator(blocks) -> np.ndarray:
    """Dense generator of the blocks chained in order: each block's exit
    feeds the first state of the next, the last block's exit absorbs.

    Filled from per-block arrays: ``-sigma`` on the diagonal, ``sigma`` above
    it inside a block and the exit rate ``sigma (1 - z)`` across blocks, and
    the feedback ``z sigma`` added from a block's last state to its first
    (``+0.0`` without feedback, which leaves every entry as it is).
    """
    b, sigma, z = np.array([(blk.b, blk.sigma, blk.z) for blk in blocks]).reshape(-1, 3).T
    b = b.astype(np.int64)
    ends = np.cumsum(b)
    u = int(ends[-1]) if b.size else 0
    rates = np.repeat(sigma, b)
    G = np.zeros((u, u))
    flat = G.reshape(-1)
    flat[:: u + 1] = -rates
    rates[ends - 1] = sigma * (1.0 - z)  # each block's last state: its exit
    flat[1 :: u + 1] = rates[:-1]
    G[ends - 1, ends - b] += z * sigma
    return G


@dataclass(frozen=True, eq=False)
class MonocyclicRep:
    """Chained feedback-Erlang blocks plus an initial vector over their states.

    The first ``n1`` blocks are the single-state blocks of the dominant rate.
    The assembled matrix is Markovian with exactly one exit transition, from
    the last state of the last block.
    """

    blocks: tuple[FEBlock, ...]
    n1: int
    lambda1: float
    gamma: np.ndarray | None = None

    def __post_init__(self):
        if not self.blocks:
            raise InvalidRepresentationError("MonocyclicRep: needs at least one block")
        if not (1 <= self.n1 <= len(self.blocks)):
            raise InvalidRepresentationError("MonocyclicRep: n1 out of range")
        for blk in self.blocks[: self.n1]:
            if not blk.degenerate or abs(blk.sigma - self.lambda1) > 1e-12 * self.lambda1:
                raise InvalidRepresentationError(
                    "MonocyclicRep: leading blocks must be single-state blocks "
                    "of the dominant rate"
                )
        if self.gamma is not None:
            g = np.array(self.gamma, dtype=float)
            if g.shape != (self.order,):
                raise InvalidRepresentationError(
                    f"MonocyclicRep: gamma length {g.shape} does not match order {self.order}"
                )
            g.setflags(write=False)
            object.__setattr__(self, "gamma", g)

    @property
    def order(self) -> int:
        return sum(blk.b for blk in self.blocks)

    @cached_property
    def matrix(self) -> np.ndarray:
        return chain_generator(self.blocks)

    def with_gamma(self, gamma: np.ndarray) -> "MonocyclicRep":
        return replace(self, gamma=np.asarray(gamma, dtype=float))


def build_generator(spec: SpectralData, tol: ToleranceConfig = DEFAULT_TOL) -> MonocyclicRep:
    """Assemble the block list for a spectrum satisfying the dominance condition.

    Each eigenvalue instance gets one block (a conjugate pair shares one);
    the dominant eigenvalue's single-state blocks come first, the rest follow
    in descending real part.
    """
    dec = check_dec(spec, tol)
    if not dec.ok:
        raise DecViolationError(dec.diagnostic)
    lambda1 = spec.lambda1
    if lambda1 <= 0:
        raise InvalidRepresentationError(
            f"build_generator: dominant eigenvalue must be negative, got {-lambda1}"
        )

    blocks: list[FEBlock] = [FEBlock(1, lambda1, 0.0) for _ in range(spec.n1)]
    rest = [t for i, t in enumerate(spec.terms) if i != spec.dominant and t.eigenvalue.imag >= 0]
    rest.sort(key=lambda t: (-t.eigenvalue.real, abs(t.eigenvalue.imag)))
    for term in rest:
        blk = fe_block_for(term.eigenvalue, lambda1, tol)
        blocks.extend([blk] * term.multiplicity)
    return MonocyclicRep(tuple(blocks), n1=spec.n1, lambda1=lambda1)


def solve_transformation_matrix(spec: SpectralData, mono: MonocyclicRep) -> np.ndarray:
    """Solve ``J W = W G`` with ``W 1 = 1`` for the rectangular ``W``, where
    ``J`` is the matrix of the expansion's canonical pair (``_jordan_pair``).

    A backward sweep over the columns of ``W`` with no linear solve.  Only
    the last state of ``G`` exits, so ``G 1 = -exit e_u`` and ``J 1 = W G 1``
    fixes the last column.  Column ``j``'s equation then gives column
    ``j - 1``: inside a block of rate ``sigma``, ``w_(j-1) = K w_j`` with
    ``K = I + J / sigma``; at the first column ``p`` of a block with feedback
    ``z`` and last column ``q``,
    ``w_(p-1) = ((J + sigma I) w_p - z sigma w_q) / e``, ``e`` the exit rate
    of the block before.  So ``w_(q-t) = K^t w_q`` inside a block, which is
    filled by doubling: with ``N = K^d - I``, the ``d`` columns before the
    last ``d`` filled are those plus ``N`` times them, and then ``2 N + N^2``
    is ``K^(2d) - I``.  A block of ``b`` states takes ``ceil(log2 b)``
    products with a batch of columns, where a sweep of one column at a time
    takes ``b - 1`` steps.

    Each step scales an eigenvalue ``lambda``'s part of a column by
    ``1 + lambda / sigma``, which a fast eigenvalue swept back through a
    long, slow block turns into growth by tens of orders of magnitude (and a
    power of ``K`` holding it would overflow).  The sweep therefore never
    carries a part where it is zero: a left eigenvector of the block upper
    triangular ``G`` vanishes on every block before the first one that holds
    its eigenvalue, so each term's coordinates are zero in the columns
    before that block, and a block's powers of ``K`` take only the
    coordinates live in it.  ``J`` is block diagonal by term, so no rounding
    from one term leaks into another.  Column 0's equation and ``W 1 = 1``
    are not imposed by the sweep; the residual check verifies both, and a
    significant residual (or a non-finite one) means the spectrum of ``G``
    does not contain that of ``J``.
    """
    return _transformation_matrix(spec, _jordan_pair(spec)[1], mono)


def _transformation_matrix(spec: SpectralData, J: np.ndarray, mono: MonocyclicRep) -> np.ndarray:
    """``solve_transformation_matrix`` for the ``J`` of ``_jordan_pair(spec)``."""
    n, u = spec.order, mono.order
    blocks = mono.blocks
    # owner[i]: the first block with the eigenvalue nearest that of
    # coordinate i's term, the block that holds that eigenvalue; a block
    # repeated for a multiple eigenvalue is looked at once, by its first index
    first: dict[FEBlock, int] = {}
    for k, blk in enumerate(blocks):
        first.setdefault(blk, k)
    block_evs = np.concatenate([[-blk.sigma] if blk.degenerate else blk.eigenvalues()
                                for blk in first])
    block_of = np.repeat(list(first.values()), [blk.b for blk in first])
    owner = np.repeat([block_of[np.abs(block_evs - t.eigenvalue).argmin()] for t in spec.terms],
                      [t.multiplicity for t in spec.terms])
    # sweep the coordinates in order of owner, so the ones live in block k
    # (owner <= k) are the first live[k]; a stable order keeps each term's
    # coordinates together, and J stays block diagonal by term
    perm = np.argsort(owner, kind="stable")
    live = np.searchsorted(owner[perm], np.arange(len(blocks)), side="right")
    Jp = J[np.ix_(perm, perm)]
    # cols[j] is column j of W, permuted
    cols = np.zeros((u, n), dtype=J.dtype)
    cols[-1] = -(Jp @ np.ones(n)) / blocks[-1].exit_rate
    q = u - 1
    for k in range(len(blocks) - 1, -1, -1):
        blk, m = blocks[k], live[k]
        p = q - blk.b + 1
        Jk = Jp[:m, :m]
        if blk.b > 1:
            # step = (K^d - I)^T: cols[j - d] = cols[j] + cols[j] step.  The
            # powers of K - I round least: on the 441-state body of
            # -1.1 +/- 14j (a 440-state block) W stays within 3e-16 normwise
            # of an extended-precision sweep of one column at a time, against
            # 6e-14 for powers of K and 4e-15 for that sweep in double
            step = Jk.T / blk.sigma
            d = 1
            while d < blk.b:
                lo = max(p, q - 2 * d + 1)
                rows = cols[lo + d : q + 1, :m]
                cols[lo : q - d + 1, :m] = rows + rows @ step
                d *= 2
                if d < blk.b:
                    step = step @ step + 2 * step
        if k:
            w = Jk @ cols[p, :m] + blk.sigma * (cols[p, :m] - blk.z * cols[q, :m])
            cols[p - 1, : live[k - 1]] = w[: live[k - 1]] / blocks[k - 1].exit_rate
        q = p - 1
    W = np.empty((n, u), dtype=J.dtype)
    W[perm] = cols.T

    G = mono.matrix
    scale = max(mat_norm_inf(J), mat_norm_inf(G))
    res = max(
        float(np.abs(J @ W - W @ G).max()) / scale,
        float(np.abs(W @ np.ones(u) - 1.0).max()),
    )
    if not res <= 1e-8:
        raise NumericError(
            "solve_transformation_matrix: no consistent solution; the generator "
            "spectrum does not contain the source spectrum",
            detail={"residual": res},
        )
    return W


def solve_gamma(spec: SpectralData, mono: MonocyclicRep,
                tol: ToleranceConfig = DEFAULT_TOL) -> MonocyclicRep:
    """Fill in the initial vector: ``gamma = alpha W`` for the solved ``W``,
    ``alpha`` the vector of the expansion's canonical pair."""
    alpha, J = _jordan_pair(spec)
    gamma_c = alpha @ _transformation_matrix(spec, J, mono)
    imag = float(np.abs(np.imag(gamma_c)).max())
    if not imag <= 1e-8 * max(1.0, float(np.abs(gamma_c).max())):
        raise NumericError(f"solve_gamma: initial vector has imaginary residue {imag:.3e}")
    gamma = np.real(gamma_c)
    drift = abs(gamma.sum() - 1.0)
    if not drift <= 1e3 * tol.alpha_sum:
        raise NumericError(f"solve_gamma: initial vector sums to 1{drift:+.3e}")
    return mono.with_gamma(gamma)
