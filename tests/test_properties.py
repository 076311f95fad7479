"""Properties of ``convert`` over the input families of ``genutil``.

Each example draws a family, a generator seed and an order limit.  The
examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from me2ph import (
    DEFAULT_TOL,
    Me2PhError,
    convert,
    moments,
    pdf_eval_many,
    phrep_cdf_grid,
    phrep_moments,
    phrep_pdf,
)
from genutil import damped_oscillation_rep, erlang_damped_rep, random_markovian_rep, tailed_damped_rep

FAMILIES = {
    "damped": damped_oscillation_rep,
    "erlang-damped": lambda rng: erlang_damped_rep(rng)[0],
    "markovian": lambda rng: random_markovian_rep(rng, int(rng.integers(2, 13))),
}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_convert_returns_an_equivalent_output_within_the_limit_or_refuses(family, seed, max_order):
    rep = FAMILIES[family](np.random.default_rng(seed))
    try:
        ph, report = convert(rep, max_order=max_order)
    except Me2PhError:
        return
    assert ph.order <= max_order
    got, ref = np.array(phrep_moments(ph, 3)), np.array(moments(rep, 3))
    assert np.abs(got / ref - 1).max() <= DEFAULT_TOL.equivalence_rel
    t, b = report.tail, report.bounds
    if b is None:
        assert t is None and ph.tail_n == 0
        return
    # searched below the certificate, the certified tail, or its one retry
    # at twice the rate over the same tau
    assert ph.tail_n == t.n
    assert t.n < b.n or (t.tau, t.n) == (b.tau, b.n) or (t.tau == b.tau and t.n > b.n)


# the families above rarely need a tail
EVALUATED = {**FAMILIES, "tailed": tailed_damped_rep}


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(EVALUATED)), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8), st.booleans())
def test_converted_output_evaluates_like_its_input(family, seed, in_means, uniform):
    # pdf and cdf of the output against the input pair's, at points placed in
    # units of the input's mean; with ``uniform``, on the linspace from the
    # smallest to the largest, which the powers of one step may take
    rep = EVALUATED[family](np.random.default_rng(seed))
    try:
        ph, _ = convert(rep)
    except Me2PhError:
        return
    mean = moments(rep, 1)[0]
    if uniform:
        in_means = np.linspace(min(in_means), max(in_means), len(in_means))
    xs = mean * np.array(in_means)
    pdf = pdf_eval_many(rep, xs)
    cdf = np.array([1.0 - np.real(rep.alpha @ expm(rep.A * x)).sum() for x in xs])
    # the construction is exact, so rounding alone separates the two (at
    # most 3e-14 on these examples); the density is taken against its scale,
    # one over the mean
    assert np.abs(phrep_pdf(ph, xs) - pdf).max() <= 1e-10 / mean
    assert np.abs(phrep_cdf_grid(ph, xs) - cdf).max() <= 1e-10
