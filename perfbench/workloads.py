"""Inputs of the me2ph benchmark.

Three workloads call the public API on different input families:

* ``paper-example``: the paper's order-7 example.  It needs an Erlang(1)
  prefix, an 8-state body and a tail of about 950k states.
* ``long-cycle``: ``exp(-x)`` plus a damped oscillation at ``-1.1 +/- k j``,
  so each input maps onto one feedback-Erlang block of 63 to 189 states and
  needs no tail.
* ``random-batch``: about 200 small inputs drawn from a fixed generator seed
  (random Markovian pairs, damped oscillations, Erlang-damped densities) plus
  four damped oscillations that need tails of 0.2k to 125k states.

Every case carries exact references computed apart from the package:
``scipy.linalg.expm`` and linear solves of the input pair, and for the paper's
example also its closed-form density.
"""

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from scipy.linalg import expm

import me2ph

# The paper's example: an order-7 pair whose density vanishes at 0.
PAPER_SCALE = 102 / 139
PAPER_ALPHA = PAPER_SCALE * np.array([1, 1, -1 / 3, 2 / 3, -5 / 2, 12 / 17, 14 / 17])
PAPER_A = np.array(
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
# With the published rounded constants the tail rate and final order are these.
PUBLISHED_RATE = 806_600.0
PUBLISHED_ORDER = 403_309


def paper_closed_form(x):
    """The example's density as printed in the paper."""
    x = np.asarray(x, dtype=float)
    return PAPER_SCALE * (
        x * np.exp(-x) + np.exp(-x) + np.exp(-3 * x) - 10 * np.exp(-4 * x)
        + np.exp(-5 * x) * (8 * np.cos(3 * x) + 4 * np.sin(3 * x))
    )


# long-cycle: frequencies k of the -1.1 +/- k j pair; the block length grows
# like 31 k, and the pdf and cdf costs grow faster than that.
LONG_CYCLE_FREQS = (2.0, 4.0, 6.0)

# random-batch make-up
# Random Markovian pairs of order 10 fail in analyze_spectrum in about 3% of
# draws (16 of 600), which would make the failure count depend on the seed;
# order 9 converted in 7500 of 7500 draws.
MARKOV_ORDERS = tuple(range(3, 10))
MARKOV_PER_ORDER = 14
DAMPED_COUNT = 48
ERLANG_DAMPED_COUNT = 48
BATCH_SEED = 2015
# Damped oscillations (a, b, amplitude, phase) that need a tail.  The tail
# size is very sensitive to these parameters: random draws reaching tails
# spread over six orders of magnitude (some exceed the order limit), which
# would make every total depend on the seed, so these members are fixed.
TAIL_ANCHORS = (
    (1.8886, 1.5962, 1.3108, 5.7930),  # tail of 211 states
    (1.7609, 1.6521, 1.3171, 4.6424),  # 2,337
    (1.6637, 1.6039, 1.3316, 2.0512),  # 21,503
    (1.6753, 1.5995, 1.3370, 4.5519),  # 125,270
)

MC_SAMPLES = 20_000
# Monte Carlo seed, fixed: the KS test at 1% rejects 1 draw in 100 of a
# correct distribution, so a seeded draw would fail at random.
MC_SEED = 1502


@dataclass
class Case:
    """One input with its evaluation grids and exact references."""

    name: str
    rep: me2ph.MERep
    pdf_grid: np.ndarray
    cdf_grid: np.ndarray
    prefix_l: int
    monte_carlo: bool
    closed_form: object = None
    pdf_ref: np.ndarray = field(default=None, repr=False)
    cdf_ref: np.ndarray = field(default=None, repr=False)
    moments_ref: np.ndarray = field(default=None, repr=False)


def _rep_from_terms(terms) -> me2ph.MERep:
    """Minimal pair for the density sum c_j x^(j-1) exp(eta x), normalized;
    conjugate partners of complex terms are added here."""
    full = []
    for eta, coeffs in terms:
        eta = complex(eta)
        full.append((eta, [complex(c) for c in coeffs]))
        if eta.imag != 0:
            full.append((eta.conjugate(), [complex(c).conjugate() for c in coeffs]))
    mass = sum(c * factorial(j) / (-eta) ** (j + 1)
               for eta, cs in full for j, c in enumerate(cs)).real
    spec_terms = tuple(me2ph.SpectralTerm(eta, tuple(c / mass for c in cs)) for eta, cs in full)
    dominant = max(range(len(spec_terms)),
                   key=lambda i: (spec_terms[i].eigenvalue.real, spec_terms[i].is_real))
    return me2ph.minimal_representation(me2ph.SpectralData(spec_terms, dominant))


def _terms_values(terms, xs) -> np.ndarray:
    """Unnormalized real density of ``terms`` (conjugates implied) on ``xs``."""
    out = np.zeros(xs.shape)
    for eta, coeffs in terms:
        eta = complex(eta)
        part = sum(c * xs**j for j, c in enumerate(coeffs)) * np.exp(eta * xs)
        out += part.real if eta.imag == 0 else 2 * part.real
    return out


def _damped_terms(a, b, amp, phase, l=0):
    return [(-1.0, [0.0] * l + [1.0]), (complex(-a, b), [0.0] * l + [amp * np.exp(1j * phase) / 2])]


def _acceptable(terms, l, x_lo) -> bool:
    """Density bounded below by 5% of its x^l exp(-x) envelope on (0, 30]."""
    xs = np.linspace(x_lo, 30.0, 1200)
    return bool((_terms_values(terms, xs) / (xs**l * np.exp(-xs))).min() > 0.05)


def random_markovian(rng, n: int) -> me2ph.MERep:
    """Random Markovian pair: positive initial vector, every state exits."""
    off = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(off, 0.0)
    exits = rng.uniform(0.1, 1.0, size=n)
    A = off - np.diag(off.sum(axis=1) + exits)
    return me2ph.MERep(rng.dirichlet(np.full(n, 2.0)), A)


def damped_oscillation(rng) -> me2ph.MERep:
    """exp(-x) plus a deeper damped oscillation of amplitude below 1.

    Below amplitude 1 the monocyclic vector stays nonnegative in practice,
    so these inputs need no tail."""
    while True:
        terms = _damped_terms(rng.uniform(1.6, 2.6), rng.uniform(0.8, 1.8),
                              rng.uniform(0.3, 1.0), rng.uniform(0.0, 2 * np.pi))
        if _acceptable(terms, 0, 1e-4):
            return _rep_from_terms(terms)


def erlang_damped(rng, l: int) -> me2ph.MERep:
    """Density with a zero of order ``l`` at 0: x^l exp(-x) plus a damped
    oscillation starting like x^l."""
    while True:
        terms = _damped_terms(rng.uniform(1.8, 2.8), rng.uniform(0.8, 1.6),
                              rng.uniform(0.05, 0.35), rng.uniform(0.0, 2 * np.pi), l)
        if _acceptable(terms, l, 1e-3):
            return _rep_from_terms(terms)


def _mean(rep: me2ph.MERep) -> float:
    return float(np.real(rep.alpha @ np.linalg.solve(-rep.A, np.ones(rep.order))))


def _scaled_case(name, rep, prefix_l, *, monte_carlo=False) -> Case:
    """Case whose grids cover four means of the input distribution."""
    m = _mean(rep)
    return Case(name, rep, m * np.linspace(0.05, 4.0, 16), m * np.linspace(0.0, 4.0, 16),
                prefix_l, monte_carlo)


def build_cases(workload: str, seed: int) -> list[Case]:
    """The workload's inputs; ``seed`` sets the order of the ``random-batch`` inputs."""
    if workload == "paper-example":
        rep = me2ph.MERep(PAPER_ALPHA, PAPER_A)
        return [Case("paper", rep, np.linspace(0.2, 10.0, 50), np.linspace(0.0, 12.0, 513),
                     1, True, closed_form=paper_closed_form)]
    if workload == "long-cycle":
        return [
            Case(f"cycle-k{k:g}", _rep_from_terms([(-1.0, [1.0]), (complex(-1.1, k), [0.3])]),
                 np.linspace(0.1, 10.0, 50), np.linspace(0.0, 10.0, 129), 0, True)
            for k in LONG_CYCLE_FREQS
        ]
    if workload == "random-batch":
        # The batch is drawn from a fixed generator seed; ``seed`` only sets
        # the order in which its inputs are called.  Seeded draws failed at
        # random: about one Erlang-damped draw in 10,000 raises in find_tau,
        # and an order-9 Markovian draw raised in fe_block_for, and a failure
        # count may not depend on the seed.
        rng = np.random.default_rng(BATCH_SEED)
        cases = [
            _scaled_case(f"markov-{n}-{i}", random_markovian(rng, n), 0)
            for n in MARKOV_ORDERS for i in range(MARKOV_PER_ORDER)
        ]
        cases += [_scaled_case(f"damped-{i}", damped_oscillation(rng), 0)
                  for i in range(DAMPED_COUNT)]
        # Monte Carlo on the two smallest tails: its cost is mostly a
        # 4097-point cdf grid, about 1.2 s per input whatever its size
        cases += [_scaled_case(f"anchor-{i}", _rep_from_terms(_damped_terms(*p)), 0,
                               monte_carlo=i < 2)
                  for i, p in enumerate(TAIL_ANCHORS)]
        for i in range(ERLANG_DAMPED_COUNT):
            l = 1 + i % 2
            cases.append(_scaled_case(f"erlang-{l}-{i}", erlang_damped(rng, l), l))
        order = np.random.default_rng(seed).permutation(len(cases))
        return [cases[i] for i in order]
    raise ValueError(f"unknown workload {workload!r}")


def attach_references(case: Case) -> None:
    """Exact pdf, cdf and first three moments of the input pair."""
    alpha, A = case.rep.alpha, case.rep.A
    ones = np.ones(case.rep.order)
    lead = -(alpha @ A)
    case.pdf_ref = np.array([np.real(lead @ expm(A * x) @ ones) for x in case.pdf_grid])
    case.cdf_ref = np.array([1.0 - np.real(alpha @ expm(A * x) @ ones) for x in case.cdf_grid])
    y, moms = ones.astype(A.dtype), []
    for k in range(1, 4):
        y = np.linalg.solve(-A, y)
        moms.append(factorial(k) * np.real(alpha @ y))
    case.moments_ref = np.array(moms)
