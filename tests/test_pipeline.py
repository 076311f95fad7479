import numpy as np
import pytest

from me2ph import (
    DEFAULT_TOL,
    InvalidRepresentationError,
    MERep,
    NumericError,
    PaperBounds,
    PositiveDensityError,
    analyze_spectrum,
    check_equivalence,
    choose_mu,
    convert,
    moments,
    phrep_moments,
    zero_multiplicity,
)
from conftest import certificate
from genutil import random_markovian_rep, rep_from_terms


def test_convert_rejects_unstable_spectrum():
    rep = MERep(np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(InvalidRepresentationError, match="nonnegative real part"):
        convert(rep)


def test_convert_enforces_order_limit(worked_rep):
    with pytest.raises(NumericError, match="exceeds"):
        convert(worked_rep, paper_bounds=PaperBounds(), max_order=100_000)


def test_convert_enforces_order_limit_without_tail():
    # a 64-state body with a nonnegative vector: no tail, still above the limit
    rep = rep_from_terms([(-1.0, [1.0]), (-1.1 + 2j, [0.3])])
    with pytest.raises(NumericError, match="order 64 exceeds the limit 10"):
        convert(rep, max_order=10)
    assert convert(rep, max_order=64)[0].order == 64


def test_convert_worked_example_computed_tail(worked_rep):
    # the search finds a tail without the certificate, so convert prices
    # none; priced by hand, the tau ladder prices each rung by the bound
    # compute_bounds certifies, and the searched tail is far below it
    ph, report = convert(worked_rep)
    assert report.bounds is None
    b = certificate(worked_rep)
    assert b.tau == 0.5
    assert b.n == 950_965
    assert abs(b.eps2 - 0.029211928006851035) <= 1e-12
    assert ph.order == report.final_order < 100
    assert ph.tail_n == report.tail.n <= b.n


def test_report_prints_a_searched_tail_without_a_certificate(worked_rep):
    lines = convert(worked_rep)[1].lines()
    assert not any(line.startswith(("tau:", "eps2:", "n:")) for line in lines)
    assert "tail: not needed" not in lines
    assert {"applied tau: 0.5", "applied n: 32", "jumps swept: 100"} <= set(lines)
    # under the published constants both are printed
    lines = convert(worked_rep, paper_bounds=PaperBounds())[1].lines()
    assert {"tau: 0.5", "n: 403300", "applied n: 403300", "jumps swept: 0"} <= set(lines)


def test_convert_erlang_reports_prefix():
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    ph, report = convert(MERep(np.array([1.0, 0.0]), A))
    assert report.l == 1
    assert report.minimal_order == 2
    assert report.bounds is None
    assert report.final_order == ph.order == 3
    assert any(line.startswith("erlang factor: l=1") for line in report.lines())


def test_choose_mu_gives_up_on_sign_changing_density():
    # vanishing at the origin but genuinely negative further out: no rate can
    # make the residual positive, so the search must terminate with an error
    rep = rep_from_terms([(-1.0 + 0j, [0.0, 1.0]), (-2.0 + 4j, [0.0, 2.5])])
    spec = analyze_spectrum(rep)
    assert zero_multiplicity(spec) == 1
    with pytest.raises(PositiveDensityError, match="doublings"):
        choose_mu(spec, 1)
    # convert meets that failure first, and the positivity grid names it
    with pytest.raises(PositiveDensityError, match=r"^grid: f\(0\.751363\) = -0\.557419 <= 0$"):
        convert(rep)


def test_convert_hypoexponential_chain_grid_would_reject():
    # the density vanishes like x^4 at 0, where the positivity grid reads
    # f(0.000776205) = 0; the body's nonnegative vector proves it positive
    rates = np.array([1.2883192254392675, 1.623662904020971, 1.8466528979451513,
                      2.8972988942744875, 2.9009273926518704])
    rep = MERep(np.eye(5)[0], np.diag(-rates) + np.diag(rates[:-1], 1))
    ph, report = convert(rep)
    assert (ph.order, ph.prefix_length, ph.u, ph.tail_n) == (9, 4, 5, 0)
    assert report.bounds is None
    m_ph, m_rep = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    assert np.abs(m_ph / m_rep - 1).max() < 1e-12


def test_convert_searches_where_the_certificate_overflows():
    # a damped oscillation with a 241-state body: its certified rate exceeds
    # 1e15, yet the search, which needs no certificate, finds a 64-state tail
    a, b, c, phi = 1.39252846017499, 29.982029705468896, 1.0038715080476077, 3.402101183476623
    rep = rep_from_terms([(-1.0, [1.0]), (complex(-a, b), [c * np.exp(1j * phi) / 2])])
    with pytest.raises(NumericError, match="exceeds 1e15"):
        certificate(rep)
    ph, report = convert(rep)
    assert report.bounds is None
    assert (report.monocyclic_order, ph.tail_n, report.tail.jumps, ph.order) == (241, 64, 96, 305)
    m_ph, m_rep = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    assert np.abs(m_ph / m_rep - 1).max() < 1e-13


def test_convert_erlang_damped_input_whose_first_weight_vanishes():
    # x^2 e^-x plus a damped oscillation starting like x^2: after the Erlang
    # split the body's first weight is zero up to rounding.  Its vector is
    # nonnegative, so no tail and no certificate is needed
    a, b, amp, phase = 1.9844971157790774, 1.3550341249420614, 0.25837856345991206, 5.6020707917423795
    rep = rep_from_terms([(-1.0, [0.0, 0.0, 1.0]), (complex(-a, b), [0.0, 0.0, amp * np.exp(1j * phase) / 2])])
    ph, report = convert(rep)
    assert (ph.order, report.l, ph.tail_n) == (20, 2, 0)
    assert report.bounds is None and report.tail is None
    m_ph, m_rep = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    assert np.abs(m_ph / m_rep - 1).max() < 1e-13


def test_convert_runs_positivity_grid_only_for_a_negative_vector(monkeypatch, worked_rep):
    from me2ph import pipeline

    calls = []
    check = pipeline.check_positive_density

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return check(*args, **kwargs)

    monkeypatch.setattr(pipeline, "check_positive_density", counted)
    _, report = convert(rep_from_terms([(-1.0, [1.0]), (-1.1 + 2j, [0.3])]))
    assert report.bounds is None and calls == []
    # once, on the input's expansion, not on the split's residual
    _, report = convert(worked_rep)
    assert report.tail is not None and calls == [report.minimal_order] == [6]


def test_convert_at_the_positivity_boundary():
    # c is 1e-7 below the largest c with a positive density: over the 2^21
    # states of the tail the entries clipped inside the slack add up, and
    # the search must take a tail whose clipped mass stays within alpha_sum
    c = 3.407025584758154 * (1 - 1e-7)
    rep = rep_from_terms([(-1.0, [1.0]), (-1.75 + 1.6j, [c * np.exp(0.3j) / 2])])
    ph, report = convert(rep)
    assert report.tail.n == ph.tail_n
    m_ph, m_rep = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    assert np.abs(m_ph / m_rep - 1).max() <= DEFAULT_TOL.equivalence_rel


def test_choose_mu_rejects_zero_multiplicity():
    rep = MERep(np.array([1.0]), np.array([[-1.0]]))
    with pytest.raises(InvalidRepresentationError, match="nothing to split"):
        choose_mu(analyze_spectrum(rep), 0)


def test_convert_fits_input_once(monkeypatch, worked_rep):
    # the Erlang split maps the input's expansion; nothing is re-fitted
    from me2ph import deconv, pipeline, spectral

    calls = []
    fit = spectral.analyze_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return fit(*args, **kwargs)

    for module in (spectral, pipeline, deconv):
        monkeypatch.setattr(module, "analyze_spectrum", counted, raising=False)
    _, report = convert(worked_rep)
    assert report.l == 1 and report.mu == 8.0
    assert calls == [7]
    calls.clear()
    _, report = convert(worked_rep, paper_bounds=PaperBounds())
    assert report.final_order == 403_309
    assert calls == [7]


def test_convert_builds_no_pair(monkeypatch, worked_rep):
    # the body's vector is carried over in the working expansion's own
    # Jordan basis, so the input's modal form is the only one computed and
    # no pair is built after the input
    from me2ph import core, monocyclic, spectral

    built, forms = [], []
    check, form = core.MERep.__post_init__, spectral.modal_form

    def counted_check(self):
        built.append(len(self.alpha))
        check(self)

    def counted_form(*args, **kwargs):
        forms.append(len(args[0]))
        return form(*args, **kwargs)

    monkeypatch.setattr(core.MERep, "__post_init__", counted_check)
    for module in (spectral, monocyclic):
        monkeypatch.setattr(module, "modal_form", counted_form, raising=False)
    _, report = convert(worked_rep)
    assert report.l == 1 and report.mu == 8.0
    assert built == [] and forms == [7]
    forms.clear()
    _, report = convert(worked_rep, paper_bounds=PaperBounds())
    assert report.final_order == 403_309
    assert built == [] and forms == [7]


def test_convert_hypoexponential_chain_with_close_rates():
    # the residual pairs of rejected mu candidates sum to 1 only within
    # 5e-9 here; no such pair is built, so the search runs to an accepted mu
    rates = np.array([0.5093234057159697, 1.0307577654879247, 1.5815864017793297,
                      1.8098084871864912, 2.3999260455494222, 2.6400207615279028])
    rep = MERep(np.eye(6)[0], np.diag(-rates) + np.diag(rates[:-1], 1))
    ph, report = convert(rep)
    assert report.l == 5 and report.final_order == ph.order == 11
    assert check_equivalence(rep, ph).max_rel_error < 1e-7


def test_choose_mu_hypoexponential_close_rates_drift_surfaces_in_solve_gamma(tmp_path, capsys):
    # an open failure: the residual's expansion has large alternating
    # coefficients, and the vector carried over from it sums to 1 only within
    # 2e-6; the stage that carries it over reports that drift
    from me2ph.cli import main
    from me2ph.io import write_me_file

    rates = np.array([1.29641573, 1.29684958, 1.3343311, 2.34607714, 2.48335955, 2.67111208])
    rep = MERep(np.eye(6)[0], np.diag(-rates) + np.diag(rates[:-1], 1))
    with pytest.raises(NumericError, match=r"solve_gamma: initial vector sums to 1\+2\.1\d\de-06"):
        convert(rep)
    inp = tmp_path / "hypo.json"
    write_me_file(rep, inp)
    assert main(["convert", str(inp), str(tmp_path / "out.json")]) == 4
    assert capsys.readouterr().err.startswith("error: numeric: solve_gamma:")


def test_analyze_spectrum_reports_ill_conditioning():
    # a chain through eigenvalues 3e-6 apart, just outside one cluster: the
    # basis that separates them is singular to working precision
    A = np.diag([-1.0, -1.0 - 3e-6, -1.0 - 6e-6]) + np.diag([1.0, 1.0], 1)
    rep = MERep(np.full(3, 1.0 / 3), A)
    with pytest.raises(NumericError, match="ill conditioned") as exc:
        analyze_spectrum(rep)
    assert exc.value.detail["cond"] > 1e13


def test_analyze_spectrum_separates_close_diagonal_eigenvalues():
    # eight eigenvalues within 6e-5 of each other, each its own cluster
    lam = np.linspace(-1.0, -1.0 - 6e-5, 8)
    alpha = np.full(8, 1.0 / 8)
    spec = analyze_spectrum(MERep(alpha, np.diag(lam)))
    assert [t.eigenvalue for t in spec.terms] == list(lam)
    assert all(t.multiplicity == 1 for t in spec.terms)
    got = np.array([t.coeffs[0] for t in spec.terms])
    assert got == pytest.approx(alpha * -lam, rel=1e-15)


@pytest.mark.parametrize("order", [12, 20, 40])
def test_convert_high_order_markovian(order):
    rng = np.random.default_rng(order)
    for _ in range(3):
        rep = random_markovian_rep(rng, order)
        ph, _ = convert(rep)
        assert phrep_moments(ph, 3) == pytest.approx(
            moments(rep, 3), rel=DEFAULT_TOL.equivalence_rel
        )


def test_convert_long_feedback_block():
    # a 629-state feedback-Erlang block behind the dominant state
    rep = rep_from_terms([(-1, [1]), (-1.1 + 20j, [0.1])])
    ph, _ = convert(rep)
    assert ph.u == 630 and ph.tail_n == 0
    assert phrep_moments(ph, 3) == pytest.approx(moments(rep, 3), rel=DEFAULT_TOL.equivalence_rel)


def test_convert_fast_pair_after_long_block():
    # -5 +/- 40j gets a 32-state block behind the 63-state block of
    # -1.1 +/- 2j, where each backward column step scales its part by
    # |1 + (-5 + 40j) / 21.1|, about 2
    rep = rep_from_terms([(-1, [1]), (-1.1 + 2j, [0.005]), (-5 + 40j, [0.01])])
    ph, _ = convert(rep)
    assert [blk.b for blk in ph.blocks] == [1, 63, 32] and ph.tail_n == 0
    assert phrep_moments(ph, 3) == pytest.approx(moments(rep, 3), rel=DEFAULT_TOL.equivalence_rel)
