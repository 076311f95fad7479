import numpy as np
import pytest

from me2ph import (
    DEFAULT_TOL,
    MERep,
    ToleranceConfig,
    analyze_spectrum,
    check_c_conditions,
    check_dec,
    cluster_eigenvalues,
    deconvolve,
    minimal_representation,
    pdf_eval_many,
)
from me2ph.core import derivatives_at_zero
from me2ph.spectral import _DERIV_ZERO_REL, expansion_values, first_nonzero_derivative, modal_form
from conftest import A6, A7, ALPHA6, f_closed
from genutil import erlang_damped_rep, random_markovian_rep, rep_from_terms


def test_worked_example_spectrum(worked_rep):
    spec = analyze_spectrum(worked_rep)
    got = sorted(
        ((t.eigenvalue, t.multiplicity) for t in spec.terms),
        key=lambda p: (p[0].real, p[0].imag),
    )
    expected = [(-5 - 3j, 1), (-5 + 3j, 1), (-4 + 0j, 1), (-3 + 0j, 1), (-1 + 0j, 2)]
    for (ge, gm), (ee, em) in zip(got, expected):
        assert ge == pytest.approx(ee, abs=1e-8)
        assert gm == em
    # the unstable eigenvalue +1 of the input matrix carries no weight
    assert all(abs(t.eigenvalue - 1.0) > 0.5 for t in spec.terms)
    assert spec.order == 6
    assert spec.lambda1 == pytest.approx(1.0)
    assert spec.n1 == 2


def test_exponential_spectrum():
    mu = 3.0
    rep = MERep(np.array([1.0]), np.array([[-mu]]))
    spec = analyze_spectrum(rep)
    assert len(spec.terms) == 1
    t = spec.terms[0]
    assert t.eigenvalue == pytest.approx(-mu)
    assert t.multiplicity == 1
    assert t.coeffs[0] == pytest.approx(mu)


def test_build_then_recover_round_trip():
    from genutil import spectrum_integral

    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(1.5, 3.0)
        b = rng.uniform(0.5, 2.0)
        c2 = rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        raw = [
            (-1.0 + 0j, [1.0, rng.uniform(0.2, 1.0)]),
            (complex(-a, b), [c2]),
            (complex(-a, -b), [np.conj(c2)]),
        ]
        total = spectrum_integral(raw).real
        terms = {eta: np.array(cs) / total for eta, cs in raw}
        rep = rep_from_terms([(eta, cs) for eta, cs in list(terms.items())[:2]])
        spec = analyze_spectrum(rep)
        assert len(spec.terms) == 3
        for t in spec.terms:
            eta = min(terms, key=lambda e: abs(e - t.eigenvalue))
            assert abs(t.eigenvalue - eta) < 1e-7
            assert np.asarray(t.coeffs) == pytest.approx(terms[eta], abs=1e-7)


@pytest.mark.parametrize("which", ["worked_minimal", "worked_rep"])
def test_worked_example_expansion_is_exact(which, worked_spec, request):
    spec = analyze_spectrum(request.getfixturevalue(which))
    exact = {t.eigenvalue: np.array(t.coeffs) for t in worked_spec.terms}
    scale = max(np.abs(cs).max() for cs in exact.values())
    assert len(spec.terms) == len(exact)
    for t in spec.terms:
        eta = min(exact, key=lambda e: abs(e - t.eigenvalue))
        assert abs(t.eigenvalue - eta) <= 1e-14 * abs(eta)
        assert np.abs(np.array(t.coeffs) - exact[eta]).max() <= 1e-14 * scale
    assert abs(minimal_representation(spec).alpha.sum() - 1.0) <= 1e-14


def test_minimal_representation_worked_example(worked_rep):
    spec = analyze_spectrum(worked_rep)
    mini = minimal_representation(spec)
    assert mini.order == 6
    assert mini.alpha == pytest.approx(ALPHA6, abs=1e-9)
    assert mini.A == pytest.approx(A6, abs=1e-9)


def test_minimal_on_already_minimal_exponential():
    rep = MERep(np.array([1.0]), np.array([[-1.0]]))
    mini = minimal_representation(analyze_spectrum(rep))
    assert mini.order == 1
    assert float(np.real(mini.alpha[0])) == pytest.approx(1.0)
    assert float(np.real(mini.A[0, 0])) == pytest.approx(-1.0)


def test_padding_with_reducible_eigenvalue_is_removed():
    rng = np.random.default_rng(3)
    base = random_markovian_rep(rng, 3)
    # append an unreachable state with eigenvalue +1
    A = np.zeros((4, 4))
    A[:3, :3] = base.A
    A[3, 3] = 1.0
    alpha = np.concatenate([base.alpha, [0.0]])
    padded = MERep(alpha, A)
    mini = minimal_representation(analyze_spectrum(padded))
    assert mini.order < padded.order
    xs = np.linspace(0.05, 10, 40)
    assert pdf_eval_many(mini, xs) == pytest.approx(pdf_eval_many(base, xs), rel=1e-8, abs=1e-12)


def test_check_dec_worked_example(worked_rep):
    spec = analyze_spectrum(worked_rep)
    report = check_dec(spec)
    assert report.ok
    assert report.dominant_eigenvalue == pytest.approx(-1.0)
    assert report.n1 == 2


def test_check_dec_rejects_tying_pair():
    rep = rep_from_terms([(-1.0 + 0j, [0.6]), (-1.0 + 2j, [0.2 + 0.1j])])
    report = check_dec(analyze_spectrum(rep))
    assert not report.ok
    assert "-1+2j" in report.diagnostic or "-1-2j" in report.diagnostic


def test_check_dec_rejects_complex_dominant():
    rep = rep_from_terms([(-2.0 + 1j, [0.3 + 0.2j]), (-3.0 + 0j, [0.5])])
    report = check_dec(analyze_spectrum(rep))
    assert not report.ok


def test_c_conditions_worked_example(worked_minimal):
    spec = analyze_spectrum(worked_minimal)
    report = check_c_conditions(worked_minimal, spec)
    assert report.all_ok
    assert report.first_nonzero_order == 1
    # f(0) = 0 and f'(0) = 918/139 > 0 (value verified against the closed form)
    assert report.first_nonzero_value == pytest.approx(918 / 139, abs=1e-9)
    h = 1e-5
    fd = (f_closed(2 * h) - 2 * f_closed(h) + f_closed(0.0)) / h**2 / 2  # noqa: unused sanity
    fd1 = (f_closed(h) - f_closed(0.0)) / h
    assert report.first_nonzero_value == pytest.approx(fd1, rel=1e-4)


def _pair_first_nonzero(spec):
    """Reference: derivatives at 0 from powers of the minimal pair's matrix,
    under the same threshold."""
    rep = minimal_representation(spec)
    scale = float(np.abs(np.diag(rep.A)).max())
    for k, d in enumerate(derivatives_at_zero(rep, spec.order + 1)):
        if abs(d) > _DERIV_ZERO_REL * scale ** (k + 1):
            return k, d
    return None


def test_first_nonzero_derivative_matches_pair_formula(worked_rep):
    erlang3 = MERep(np.array([1.0, 0.0, 0.0]), np.diag([-1.0] * 3) + np.diag([1.0, 1.0], 1))
    worked = analyze_spectrum(worked_rep)
    specs = [worked, analyze_spectrum(erlang3)]
    specs += [deconvolve(worked, 1, mu) for mu in (2.0, 4.0, 8.0, 10.0)]
    rng = np.random.default_rng(11)
    for _ in range(20):
        rep, l = erlang_damped_rep(rng)
        spec = analyze_spectrum(rep)
        specs += [spec] + [deconvolve(spec, l, f * spec.lambda1) for f in (2.0, 4.0, 8.0)]
    orders = set()
    for spec in specs:
        got, ref = first_nonzero_derivative(spec), _pair_first_nonzero(spec)
        assert got[0] == ref[0]
        assert got[1] == pytest.approx(ref[1], rel=1e-10)
        orders.add(got[0])
    assert orders == {0, 1, 2}


def test_c3_fails_when_unnormalized(worked_minimal):
    loose = ToleranceConfig(alpha_sum=10.0)
    rep = MERep(worked_minimal.alpha * 2, worked_minimal.A, tol=loose)
    spec = analyze_spectrum(rep)
    report = check_c_conditions(rep, spec, DEFAULT_TOL)
    assert not report.c3_normalized


def test_c1_fails_for_unstable_matrix():
    rep = MERep(np.array([1.0]), np.array([[1.0]]))
    spec = analyze_spectrum(rep)
    report = check_c_conditions(rep, spec)
    assert not report.c1_stable


def test_minimization_preserves_pdf_and_is_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(8):
        rep = random_markovian_rep(rng, 5)
        spec = analyze_spectrum(rep)
        mini = minimal_representation(spec)
        xs = np.linspace(0.2, 20.0, 100)
        assert pdf_eval_many(mini, xs) == pytest.approx(
            pdf_eval_many(rep, xs), rel=1e-7, abs=1e-14
        )
        again = minimal_representation(analyze_spectrum(mini))
        assert again.order == mini.order


def test_identical_jordan_structure_across_paddings():
    rng = np.random.default_rng(23)
    base = random_markovian_rep(rng, 4)

    def padded(extra_eig):
        A = np.zeros((5, 5))
        A[:4, :4] = base.A
        A[4, 4] = extra_eig
        return MERep(np.concatenate([base.alpha, [0.0]]), A)

    struct = []
    for extra in (-7.0, -9.0):
        spec = analyze_spectrum(padded(extra))
        struct.append(
            sorted(
                ((t.eigenvalue.real, t.eigenvalue.imag, t.multiplicity) for t in spec.terms),
            )
        )
    assert struct[0] == pytest.approx(struct[1], abs=1e-7)


def test_dominant_asymptotics(worked_rep, worked_minimal):
    # the far tail is only computable after the unstable redundant eigenvalue
    # is eliminated; exp(30)-scale cancellation drowns the order-7 input
    spec = analyze_spectrum(worked_rep)
    lam1, n1 = spec.lambda1, spec.n1
    c_top = spec.dominant_term.coeffs[-1].real
    assert c_top > 0
    vals = pdf_eval_many(worked_minimal, np.array([30.0 / lam1, 40.0 / lam1]))
    ratios = vals / (np.array([30.0, 40.0]) ** (n1 - 1) * np.exp(-np.array([30.0, 40.0])))
    assert ratios[0] == pytest.approx(ratios[1], rel=0.05)
    assert ratios[1] == pytest.approx(c_top, rel=0.05)


def test_cluster_eigenvalues_pairs_conjugates():
    spectrum = cluster_eigenvalues(A6)
    pairs = dict()
    for ev, mult in spectrum:
        pairs[complex(np.round(ev, 8))] = mult
    assert pairs[complex(-1.0)] == 2
    assert pairs[complex(-5, 3)] == 1
    assert pairs[complex(-5, -3)] == 1
    assert sum(m for _, m in spectrum) == 6


def test_modal_form_chained_eigenvalues_keep_their_own_clusters():
    # -1 - 8e-6 lies within the cluster tolerance of -1 - 4e-6, which joins
    # the cluster of -1: it stays a cluster of its own, not one with -5
    A = np.diag([-1.0, -1.0 - 4e-6, -1.0 - 8e-6, -5.0])
    clusters = modal_form(A)[2]
    assert [c.stop - c.start for _, c in clusters] == [2, 1, 1]
    assert [eta for eta, _ in clusters] == pytest.approx([-1.0 - 2e-6, -1.0 - 8e-6, -5.0], abs=1e-15)
    spec = analyze_spectrum(MERep(np.full(4, 0.25), A))
    got = {t.eigenvalue: t.coeffs for t in spec.terms}
    assert len(got) == 3
    assert got[-5.0] == pytest.approx((1.25,), rel=1e-14)
    assert got[-1.0 - 8e-6] == pytest.approx((0.25 * (1 + 8e-6),), rel=1e-14)
    assert abs(minimal_representation(spec).alpha.sum() - 1.0) <= 1e-14


def test_modal_form_merges_near_real_pair():
    # eigenvalues -1 +- 0.8e-6 i are snapped onto the real axis and form one
    # real cluster of size 2, so no part of the density is lost
    A = np.array([[-1.0, 0.8e-6], [-0.8e-6, -1.0]])
    assert [c.stop - c.start for _, c in modal_form(A)[2]] == [2]
    rep = MERep(np.array([0.5, 0.5]), A)
    spec = analyze_spectrum(rep)
    assert [t.eigenvalue for t in spec.terms] == [pytest.approx(-1.0, abs=1e-15)]
    assert spec.terms[0].coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert abs(minimal_representation(spec).alpha.sum() - 1.0) <= 1e-14


def test_modal_form_conjugate_partners_are_exact():
    # on a dense real matrix each cluster above the real axis has a partner
    # of the same size whose center is its exact conjugate
    spectrum = dict(cluster_eigenvalues(A7))
    upper = [eta for eta in spectrum if eta.imag > 0]
    assert upper and all(spectrum[eta.conjugate()] == spectrum[eta] for eta in upper)


def _unfolded_values(spec, xs):
    """The expansion summed term by term in complex arithmetic."""
    out = np.zeros(xs.shape, dtype=complex)
    for term in spec.terms:
        poly = np.zeros(xs.shape, dtype=complex)
        for c in reversed(term.coeffs):
            poly = poly * xs + c
        out += poly * np.exp(term.eigenvalue * xs)
    return out.real


@pytest.mark.parametrize("spec", [
    # a complex pair: a term with no conjugate partner to fold
    analyze_spectrum(MERep(np.array([0.7 + 0.1j, 0.3 - 0.1j]),
                           np.array([[-1.0 + 0.5j, 0.3], [0.0, -2.0 - 1j]]))),
    # a conjugate pair of multiplicity 2 beside a repeated real eigenvalue
    analyze_spectrum(rep_from_terms([(-1.0, [0.4, 0.6]), (-1.5 + 4j, [0.1, 0.2 - 0.1j])])),
])
def test_expansion_values_match_the_unfolded_sum(spec):
    xs = np.linspace(0.0, 12.0, 2000)
    ref = _unfolded_values(spec, xs)
    assert np.abs(expansion_values(spec, xs) - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("terms", [
    [(-1.0, [0.4, 0.6]), (-2.5, [0.3])],
    [(-1, [1]), (-1.1 + 2j, [0.1, 0.02]), (-3, [0.2])],
])
def test_analyze_spectrum_on_a_triangular_input_skips_the_basis_solve(terms, monkeypatch):
    # an upper triangular matrix in cluster order is its own modal form: the
    # expansion is the one the general path reads off the identity basis
    rep = rep_from_terms(terms)
    assert not np.any(np.tril(rep.A, -1))
    with monkeypatch.context() as patch:
        patch.setattr(np, "array_equal", lambda *args, **kwargs: False)
        general = analyze_spectrum(rep)
    monkeypatch.setattr(np.linalg, "cond", None)
    monkeypatch.setattr(np.linalg, "solve", None)
    assert analyze_spectrum(rep) == general
