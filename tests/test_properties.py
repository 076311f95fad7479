"""Properties of ``convert`` over the input families of ``genutil``.

Each example draws a family, a generator seed and an order limit.  The
examples are derandomized, so every run checks the same inputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from me2ph import DEFAULT_TOL, Me2PhError, convert, moments, phrep_moments
from genutil import damped_oscillation_rep, erlang_damped_rep, random_markovian_rep

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
