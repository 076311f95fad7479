"""The unit of time changes no result: ``convert`` of ``(alpha, c A)`` is
``convert`` of ``(alpha, A)`` with every rate times ``c`` and every time over
``c``, exactly when ``c`` is a power of two."""

import json

import numpy as np
import pytest

import me2ph.tail
from conftest import ALPHA7, A7
from genutil import random_markovian_rep, rep_from_terms
from me2ph import (DecViolationError, MERep, convert, monte_carlo_check, phrep_cdf_grid, phrep_moments,
                   phrep_pdf)
from me2ph.cli import main
from me2ph.io import write_me_file
from me2ph.tail import _cheapest_path, _progression

INPUTS = {
    "worked": MERep(ALPHA7, A7),
    # one 63-state feedback-Erlang block, no tail
    "long-cycle": rep_from_terms([(-1.0, [1.0]), (-1.1 + 2j, [0.3])]),
    "markov": random_markovian_rep(np.random.default_rng(5), 6),
    # a zero of order 2 at the origin: an Erlang(2) prefix
    "erlang-damped": rep_from_terms([(-1.0, [0.0, 0.0, 1.0]),
                                     (-2.2 + 1.2j, [0.0, 0.0, 0.1 * np.exp(0.7j)])]),
    # the smallest tail-anchor input of the benchmark: a 211-state tail
    "anchor": rep_from_terms([(-1.0, [1.0]), (-1.8886 + 1.5962j, [0.6554 * np.exp(5.7930j)])]),
}


# prices a 3,454-state certificate when the search without one may sweep no
# jumps, and applies a 2-state tail that the search below it finds in 4
CERTIFIED = rep_from_terms([(-1, [1]), (-1.8 + 3j, [0.55])])


@pytest.fixture(scope="module")
def unit_conversions():
    return {name: convert(rep) for name, rep in INPUTS.items()}


def _scaled(rep: MERep, c: float) -> MERep:
    return MERep(rep.alpha, c * rep.A)


@pytest.mark.parametrize("name", sorted(INPUTS) + ["certified"])
def test_power_of_two_time_unit_is_an_exact_rescaling(name, unit_conversions, monkeypatch):
    if name == "certified":
        monkeypatch.setattr(me2ph.tail, "_SEARCH_JUMPS", 0)
        rep = CERTIFIED
        ph0, report0 = convert(rep)
        assert report0.bounds.n == 3_454 and (report0.tail.n, report0.tail.jumps) == (2, 4)
    else:
        rep = INPUTS[name]
        ph0, report0 = unit_conversions[name]
    for j in (-30, -7, 3, 30):
        c = 2.0**j
        ph, report = convert(_scaled(rep, c))
        assert np.array_equal(ph.head_gamma, ph0.head_gamma)
        assert np.array_equal(ph.tail_weights, ph0.tail_weights)
        assert [(b.b, b.sigma, b.z) for b in ph.blocks] == [(b.b, b.sigma * c, b.z) for b in ph0.blocks]
        assert (ph.tail_n, ph.tail_lambda) == (ph0.tail_n, ph0.tail_lambda * c)
        assert ph.prefix_length == ph0.prefix_length
        if ph0.prefix is not None:
            assert ph.prefix.mu == ph0.prefix.mu * c
            assert report.mu == report0.mu * c
        assert report.gamma_min == report0.gamma_min
        if report0.bounds is not None:
            b, b0 = report.bounds, report0.bounds
            assert (b.tau, b.g, b.eps2, b.rate) == (b0.tau / c, b0.g * c, b0.eps2 * c, b0.rate * c)
            assert (b.eps1, b.gamma_norm, b.n) == (b0.eps1, b0.gamma_norm, b0.n)
        if report0.tail is not None:
            t, t0 = report.tail, report0.tail
            assert (t.tau, t.rate, t.n, t.jumps) == (t0.tau / c, t0.rate * c, t0.n, t0.jumps)


@pytest.mark.parametrize("c", [1e-8, 1e8, 3600.0])
def test_any_time_unit_keeps_the_order(c, unit_conversions):
    for name, rep in INPUTS.items():
        ph0, report0 = unit_conversions[name]
        ph, report = convert(_scaled(rep, c))
        assert (ph.order, report.l, ph.tail_n) == (ph0.order, report0.l, ph0.tail_n), name


def test_tie_message_quotes_the_input_units():
    tie = rep_from_terms([(-1.0 + 0j, [0.6]), (-1.0 + 2j, [0.2 + 0.1j])])
    with pytest.raises(DecViolationError) as info:
        convert(_scaled(tie, 1 / 8))
    assert "-0.125+0.25j" in str(info.value) or "-0.125-0.25j" in str(info.value)


@pytest.mark.parametrize("name", ["worked", "erlang-damped"])
def test_validate_cli_reads_a_short_time_unit(name, tmp_path, capsys):
    path = tmp_path / "scaled.json"
    write_me_file(_scaled(INPUTS[name], 1e-8), path)
    assert main(["validate", str(path)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["dec"] and verdict["positive_density"]


@pytest.mark.parametrize("name", ["markov-4", "anchor"])
def test_monte_carlo_statistic_ignores_the_time_unit(name):
    # the cdf grid ends at a multiple of the largest sample, so with every
    # time 2^30 times longer or 2^50 times shorter it covers the samples alike
    rep = random_markovian_rep(np.random.default_rng(3), 4) if name == "markov-4" else INPUTS[name]
    ks = monte_carlo_check(convert(rep)[0], samples=2000, seed=7)
    for j in (-30, 50):
        assert monte_carlo_check(convert(_scaled(rep, 2.0**j))[0], samples=2000, seed=7) == ks


@pytest.mark.parametrize("name", ["worked", "long-cycle"])
@pytest.mark.parametrize("x0", [0.0, 0.5])
def test_uniform_grid_values_ignore_the_time_unit(name, x0, unit_conversions):
    # pdf and cdf on a uniform grid take the powers of one step exp(B h),
    # and B h is the same product in every power-of-two time unit
    ph0 = unit_conversions[name][0]
    xs = np.linspace(x0, 20.0, 257)
    assert _cheapest_path(ph0, xs, _progression(xs)) == "grid"
    pdf, cdf = phrep_pdf(ph0, xs), phrep_cdf_grid(ph0, xs)
    for j in (-30, 50):
        c = 2.0**j
        ph = convert(_scaled(INPUTS[name], c))[0]
        assert _cheapest_path(ph, xs / c, _progression(xs / c)) == "grid"
        assert np.array_equal(phrep_pdf(ph, xs / c), c * pdf)
        assert np.array_equal(phrep_cdf_grid(ph, xs / c), cdf)


@pytest.mark.parametrize("name, pick", [("worked", "one chain"), ("long-cycle", "convolution")])
def test_poisson_path_pick_ignores_the_time_unit(name, pick, unit_conversions):
    # on scattered points the rule prices rates times points, which a
    # power-of-two time unit leaves bit-identical: 1 point, 16 on [0, 4
    # means) and 257 on [0, 20 means)
    ph0 = unit_conversions[name][0]
    mean = phrep_moments(ph0, 1)[0]
    rng = np.random.default_rng(0)
    for xs in (np.array([0.7]), 4 * np.sort(rng.random(16)), 20 * np.sort(rng.random(257))):
        xs = mean * xs
        assert _progression(xs) is None and _cheapest_path(ph0, xs, None) == pick
        pdf, cdf = phrep_pdf(ph0, xs), phrep_cdf_grid(ph0, xs)
        for j in (-30, 50):
            c = 2.0**j
            ph = convert(_scaled(INPUTS[name], c))[0]
            assert _cheapest_path(ph, xs / c, None) == pick
            assert phrep_pdf(ph, xs / c) == pytest.approx(c * pdf, rel=1e-13, abs=0)
            assert np.array_equal(phrep_cdf_grid(ph, xs / c), cdf)
