from math import comb

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from me2ph import (
    MERep,
    analyze_spectrum,
    check_positive_density,
    choose_mu,
    convert,
    deconvolve,
    minimal_representation,
    pdf_eval,
    pdf_eval_many,
    phrep_pdf,
    recompose,
    to_dense,
    zero_multiplicity,
)
from me2ph.spectral import expansion_values
from conftest import ALPHA_RESIDUAL, fy_closed
from genutil import erlang_damped_rep


def erlang_rep(k: int, rate: float) -> MERep:
    A = np.diag(np.full(k, -rate)) + np.diag(np.full(k - 1, rate), 1)
    alpha = np.zeros(k)
    alpha[0] = 1.0
    return MERep(alpha, A)


def erlang_pdf(k: int, rate: float, x):
    x = np.asarray(x, dtype=float)
    from scipy.special import gammaln

    return np.exp(
        np.log(rate) + (k - 1) * np.log(np.maximum(rate * x, 1e-300)) - rate * x - gammaln(k)
    )


def test_zero_multiplicity_worked_example(worked_minimal):
    assert zero_multiplicity(analyze_spectrum(worked_minimal)) == 1


def test_zero_multiplicity_trivial_cases():
    assert zero_multiplicity(analyze_spectrum(MERep(np.array([1.0]), np.array([[-1.0]])))) == 0
    assert zero_multiplicity(analyze_spectrum(erlang_rep(3, 1.0))) == 2


def test_deconvolve_worked_example(worked_spec, worked_minimal, worked_residual):
    out = minimal_representation(deconvolve(worked_spec, l=1, mu=10.0))
    assert out.alpha == pytest.approx(ALPHA_RESIDUAL, abs=1e-9)
    assert out.A == pytest.approx(worked_minimal.A)  # matrix unchanged
    assert complex(out.alpha.sum()) == pytest.approx(1.0, abs=1e-12)
    # cross-check the frozen vector against the residual closed form
    xs = np.linspace(0.0, 6.0, 30)
    assert pdf_eval_many(out, xs) == pytest.approx(fy_closed(xs), abs=1e-12)


def test_deconvolve_l_zero_is_identity(worked_minimal):
    spec = analyze_spectrum(worked_minimal)
    assert deconvolve(spec, 0, 5.0) is spec


def test_deconvolve_erlang_value_at_zero():
    rep = erlang_rep(2, 1.0)
    out = minimal_representation(deconvolve(analyze_spectrum(rep), l=1, mu=10.0))
    # sum_i C(1,i) mu^-i f^(i)(0) = f'(0)/10 = 1/10
    assert pdf_eval(out, 0.0) == pytest.approx(0.1, abs=1e-12)


def _residual_reference(rep: MERep, l: int, mu: float, xs) -> np.ndarray:
    """sum_i C(l,i) mu^-i f^(i)(x), each derivative -alpha A^(i+1) expm(A x) 1."""
    out = np.zeros(len(xs))
    for k, x in enumerate(xs):
        v = expm(rep.A * x) @ np.ones(rep.order)
        for i in range(l + 1):
            v = rep.A @ v
            out[k] += comb(l, i) * mu**-i * float(np.real(-(rep.alpha @ v)))
    return out


@pytest.mark.parametrize("mu", [2.0, 4.0, 8.0, 10.0])
def test_deconvolve_matches_derivative_reference(worked_spec, worked_minimal, mu):
    out = deconvolve(worked_spec, 1, mu)
    xs = np.linspace(0.0, 10.0, 60)
    ref = _residual_reference(worked_minimal, 1, mu, xs)
    assert expansion_values(out, xs) == pytest.approx(ref, rel=1e-10)
    # (1 + D/mu) annihilates e^(-mu x): at mu = 4 the -4 term is gone
    assert any(t.eigenvalue == -4 for t in out.terms) == (mu != 4.0)
    assert out.order == (5 if mu == 4.0 else 6)
    # the fitted input loses the same terms
    assert deconvolve(analyze_spectrum(worked_minimal), 1, mu).order == out.order


def test_deconvolve_l2_matches_derivative_reference():
    rng = np.random.default_rng(7)
    rep, l = erlang_damped_rep(rng)
    while l != 2:
        rep, l = erlang_damped_rep(rng)
    spec = analyze_spectrum(rep)
    for mu in (2.0 * spec.lambda1, 8.0):
        out = deconvolve(spec, l, mu)
        xs = np.linspace(0.0, 12.0, 60)
        ref = _residual_reference(rep, l, mu, xs)
        assert expansion_values(out, xs) == pytest.approx(ref, rel=1e-10)
        assert [t.eigenvalue for t in out.terms] == [t.eigenvalue for t in spec.terms]


def test_choose_mu_accepts_positive_residual(worked_minimal):
    spec = analyze_spectrum(worked_minimal)
    mu, spec_r = choose_mu(spec, 1)
    residual = minimal_representation(spec_r)
    xs = np.linspace(1e-3, 40.0, 1500)
    assert pdf_eval_many(residual, xs).min() > 0
    assert pdf_eval(residual, 0.0) > 0
    # the published choice mu = 10 passes the same gate
    spec10 = deconvolve(spec, 1, 10.0)
    assert check_positive_density(spec10).ok


def test_choose_mu_erlang():
    rep = erlang_rep(2, 1.0)
    spec = analyze_spectrum(rep)
    mu, spec_r = choose_mu(spec, 1)
    residual = minimal_representation(spec_r)
    assert mu > spec.lambda1
    xs = np.linspace(0.0, 40.0, 1500)
    assert pdf_eval_many(residual, xs).min() > 0


def test_recompose_l_zero_identity(worked_conversion):
    ph, _ = worked_conversion
    assert recompose(ph, 0, 10.0) is ph


def test_recompose_round_trip_erlang():
    rep = erlang_rep(2, 1.0)
    ph, report = convert(rep)
    assert report.l == 1
    assert ph.prefix is not None and ph.prefix.l == 1
    mu = ph.prefix.mu
    xs = np.linspace(0.05, 8.0, 25)
    got = phrep_pdf(ph, xs)
    assert got == pytest.approx(erlang_pdf(2, 1.0, xs), rel=1e-8, abs=1e-12)
    # independent convolution oracle for the same composition
    inner = MERep(ph.head_gamma, ph.matrix)
    for x in (0.5, 1.5, 4.0):
        ref, _err = quad(
            lambda s: pdf_eval(inner, s) * float(erlang_pdf(1, mu, x - s)), 0.0, x
        )
        assert phrep_pdf(ph, x) == pytest.approx(ref, rel=1e-6)


def test_zero_multiplicity_additivity_of_compositions():
    # Erlang prefixes stacked on an exponential: combined zero order adds up
    for l, mu in ((1, 4.0), (2, 6.0)):
        ph, _ = convert(erlang_rep(l + 1, 1.0))
        assert ph.prefix is not None and ph.prefix.l == l
        b, B = to_dense(ph)
        dense = MERep(b, B)
        assert zero_multiplicity(analyze_spectrum(dense)) == l + zero_multiplicity(
            analyze_spectrum(MERep(ph.head_gamma, ph.matrix))
        )


def test_deconvolution_round_trip_properties():
    rng = np.random.default_rng(99)
    for _ in range(5):
        rep, l_true = erlang_damped_rep(rng)
        assert zero_multiplicity(analyze_spectrum(rep)) == l_true
        ph, report = convert(rep)
        assert report.l == l_true
        xs = np.linspace(0.1, 12.0, 100)
        assert phrep_pdf(ph, xs) == pytest.approx(
            pdf_eval_many(rep, xs), rel=1e-7, abs=1e-10
        )
