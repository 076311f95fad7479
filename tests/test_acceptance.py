"""Acceptance gate: each criterion runs at its stated tolerance and prints one
pass/fail line (run with ``pytest -s`` to see the lines)."""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from me2ph import (
    MERep,
    PaperBounds,
    TailChoice,
    analyze_spectrum,
    append_tail,
    build_generator,
    check_dec,
    check_markovian,
    check_positive_density,
    compute_bounds,
    convert,
    deconvolve,
    find_tau,
    ks_threshold,
    minimal_representation,
    monte_carlo_check,
    pdf_eval_many,
    phrep_pdf,
    solve_gamma,
    zero_multiplicity,
)
from me2ph.cli import main as cli_main
from me2ph.io import write_me_file
from me2ph.spectral import expansion_values
from conftest import (
    ALPHA_RESIDUAL,
    G8,
    GAMMA8,
    f_closed,
)
from genutil import (
    damped_oscillation_rep,
    erlang_damped_rep,
    multi_class_generator,
    random_markovian_rep,
    rep_from_terms,
)


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


_SUITE_SECONDS: list[float] = []


def _timed_suite(started: float):
    _SUITE_SECONDS.append(time.perf_counter() - started)


def test_criterion_1_worked_example_regression(worked_rep):
    started = time.perf_counter()

    # spectrum: the unstable extra eigenvalue disappears, order drops to 6
    spec = analyze_spectrum(worked_rep)
    found = np.array(
        sorted((t.eigenvalue.real, t.eigenvalue.imag, t.multiplicity) for t in spec.terms)
    )
    expected = np.array([(-5, -3, 1), (-5, 3, 1), (-4, 0, 1), (-3, 0, 1), (-1, 0, 2)])
    assert found == pytest.approx(expected, abs=1e-8)
    minimal = minimal_representation(spec)
    assert minimal.order == 6

    # zero at the origin has multiplicity 1; the first derivative is 918/139,
    # cross-checked against the closed form by finite differences
    assert zero_multiplicity(spec) == 1
    d1 = float(-(minimal.alpha @ minimal.A @ minimal.A @ np.ones(6)).real)
    assert d1 == pytest.approx(918 / 139, abs=1e-9)
    h = 1e-6
    assert d1 == pytest.approx(float((f_closed(h) - f_closed(0.0)) / h), rel=1e-5)
    assert d1 > 0

    # residual vector for the Erlang(1, 10) split
    spec_r = deconvolve(spec, 1, 10.0)
    residual = minimal_representation(spec_r)
    assert residual.alpha == pytest.approx(ALPHA_RESIDUAL, abs=1e-9)

    # feedback-Erlang block of the complex pair
    from me2ph import fe_block_for

    blk = fe_block_for(-5 + 3j, 1.0)
    assert blk.b == 4
    expected_block = np.array(
        [[-5.0, 5, 0, 0], [0, -5, 5, 0], [0, 0, -5, 5], [81 / 125, 0, 0, -5]]
    )
    assert blk.matrix() == pytest.approx(expected_block, abs=1e-9)

    # assembled generator and initial vector against the published values
    mono = solve_gamma(spec_r, build_generator(spec_r))
    assert mono.matrix == pytest.approx(G8, abs=1e-9)
    assert mono.gamma == pytest.approx(GAMMA8, abs=1e-9)

    # tau = 0.5 is admissible and the generator norm is exactly 10
    assert float((mono.gamma @ expm(G8 * 0.5)).min()) > 0
    assert np.abs(G8).sum(axis=1).max() == 10.0

    # published rounded constants reproduce the published tail figures
    ph, report = convert(worked_rep, paper_bounds=PaperBounds())
    b = report.bounds
    assert 111_000 <= b.lambda_prime <= 112_000
    assert 806_000 <= b.lambda_dprime <= 807_000
    assert b.rate == 806_600.0
    assert b.n == 403_300
    assert ph.order == 403_309

    # the final representation is Markovian and reproduces the density
    assert check_markovian(ph).ok
    xs = np.linspace(10.0 / 50, 10.0, 50)
    got = phrep_pdf(ph, xs)
    ref = f_closed(xs)
    assert np.abs(got / ref - 1.0).max() <= 1e-5

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(f"criterion 1 (worked-example regression, {elapsed:.1f}s)")


def test_criterion_2a_transformation_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        rep = random_markovian_rep(rng, n)
        S = rng.normal(size=(n, n))
        S -= S.sum(axis=1, keepdims=True) / n  # rows sum to zero
        W = np.eye(n) + 0.2 * S / max(1.0, np.abs(S).sum(axis=1).max())
        G = np.linalg.solve(W, rep.A @ W)
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-9
        out = MERep(rep.alpha @ W, G)
        xs = np.linspace(0.1, 8.0, 8)
        f1 = pdf_eval_many(rep, xs)
        f2 = pdf_eval_many(out, xs)
        assert np.abs(f1 - f2).max() <= 1e-9 * max(1.0, np.abs(f1).max())
    _timed_suite(started)
    _report("criterion 2a (transformation invariance, 200 cases)")


def test_criterion_2b_fe_dominant_eigenvalue():
    started = time.perf_counter()
    from me2ph import FEBlock

    rng = np.random.default_rng(102)
    for _ in range(200):
        b = int(rng.integers(1, 13))
        sigma = float(rng.uniform(0.01, 10.0))
        z = float(rng.uniform(0.0, 0.99))
        blk = FEBlock(b, sigma, z)
        eigs = np.linalg.eigvals(blk.matrix())
        assert abs(blk.r - eigs.real.max()) <= 1e-10 * max(1.0, sigma)
    _timed_suite(started)
    _report("criterion 2b (feedback-Erlang dominant eigenvalue, 200 cases)")


def test_criterion_2c_power_approximation_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    checks = 0
    for r in (0.5, 1.0, 5.0):
        for n in (10, 100, 1000):
            bound = r**2 * np.exp(r) / (2 * n)
            # scalar version on 64 samples of the disk |z| <= r
            angles = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
            zs = np.concatenate([
                r * np.exp(1j * angles),
                r * rng.uniform(0.2, 0.95, 16) * np.exp(1j * rng.uniform(0, 2 * np.pi, 16)),
            ])
            errs = np.abs(np.exp(zs) - (1 + zs / n) ** n)
            assert errs.max() <= bound * (1 + 1e-12)
            # the worst sample sits near the positive real axis point z = r
            worst = zs[int(errs.argmax())]
            assert abs(worst - r) <= abs(r * np.exp(1j * angles[1]) - r) + 1e-12
            checks += zs.size
            # matrix version on random stable matrices of the same norm
            for _ in range(23):
                m = int(rng.integers(2, 6))
                H = rng.normal(size=(m, m))
                H = H - np.eye(m) * (np.abs(H).sum(axis=1).max())
                H *= r / np.abs(H).sum(axis=1).max()
                diff = expm(H) - np.linalg.matrix_power(np.eye(m) + H / n, n)
                assert np.abs(diff).sum(axis=1).max() <= bound * (1 + 1e-12)
                checks += 1
    assert checks >= 200
    _timed_suite(started)
    _report(f"criterion 2c (power approximation bound, {checks} checks)")


def test_criterion_2d_tail_weight_sampling_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    done = 0
    attempts = 0
    while done < 200 and attempts < 2000:
        attempts += 1
        rep = damped_oscillation_rep(rng)
        spec = analyze_spectrum(rep)
        mono = solve_gamma(spec, build_generator(spec))
        if mono.gamma.min() >= 0:
            continue
        bounds = compute_bounds(mono, *find_tau(mono, spec), spec)
        ph = append_tail(mono, TailChoice.certified(bounds))
        lam, n = ph.tail_lambda, ph.tail_n
        v_by_power = ph.tail_weights[::-1]
        f_vals = expansion_values(spec, np.arange(n) / lam)
        assert np.abs(lam * v_by_power - f_vals).max() <= bounds.eps2 * (1 + 1e-9)
        done += 1
    assert done >= 200
    _timed_suite(started)
    _report(f"criterion 2d (tail-weight sampling bound, {done} cases)")


def test_criterion_2e_markovian_implies_density_and_dominance():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    for i in range(200):
        rep = random_markovian_rep(rng, int(rng.integers(2, 7)))
        spec = analyze_spectrum(rep)
        assert check_dec(spec).ok
        assert check_positive_density(spec).ok
    # multi-class structured generator: dominant eigenvalue -1, conditions hold
    rep = MERep(np.full(10, 0.1), multi_class_generator())
    spec = analyze_spectrum(rep)
    report = check_dec(spec)
    assert report.ok and report.dominant_eigenvalue == pytest.approx(-1.0, abs=1e-9)
    assert check_positive_density(spec).ok
    _timed_suite(started)
    _report("criterion 2e (positive density and dominance of Markovian pairs, 201 cases)")


def test_criterion_2f_deconvolution_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(200):
        rep, l_true = erlang_damped_rep(rng)
        ph, report = convert(rep)
        assert report.l == l_true
        xs = np.linspace(0.25, 8.0, 10)
        got = phrep_pdf(ph, xs)
        ref = pdf_eval_many(rep, xs)
        assert np.abs(got / ref - 1.0).max() <= 1e-5
    _timed_suite(started)
    total = sum(_SUITE_SECONDS)
    assert total < 60.0, f"property suites took {total:.1f}s"
    _report(f"criterion 2f (deconvolution round trip, 200 cases; suites total {total:.1f}s)")


def test_criterion_3_monte_carlo_cross_check():
    started = time.perf_counter()
    samples = 100_000
    threshold = ks_threshold(samples)  # 1.63 / sqrt(1e5)
    assert threshold == pytest.approx(0.0052, abs=1e-4)

    examples = []
    examples.append(convert(MERep(np.array([1.0]), np.array([[-1.0]])))[0])
    erl = MERep(np.array([1.0, 0, 0, 0]), np.diag([-2.0] * 4) + np.diag([2.0] * 3, 1))
    examples.append(convert(erl)[0])
    rng = np.random.default_rng(31)
    while True:
        rep = damped_oscillation_rep(rng)
        ph, report = convert(rep)
        if report.tail is not None:
            examples.append(ph)
            break

    for i, ph in enumerate(examples):
        ks = monte_carlo_check(ph, samples=samples, seed=2000 + i)
        assert ks <= threshold, f"example {i}: KS {ks} above {threshold}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(f"criterion 3 (Monte Carlo cross-check, {elapsed:.1f}s)")


def test_criterion_4_failure_modes(tmp_path, capsys):
    tie = rep_from_terms([(-1.0 + 0j, [0.6]), (-1.0 + 2j, [0.2 + 0.1j])])
    tie_path = tmp_path / "tie.json"
    write_me_file(tie, tie_path)
    assert cli_main(["convert", str(tie_path), str(tmp_path / "o1.json")]) == 2
    err = capsys.readouterr().err
    assert "dec-violation" in err and ("-1+2j" in err or "-1-2j" in err)

    dip = rep_from_terms([(-1.0 + 0j, [1.0]), (-2.0 + 4j, [2.5])])
    xs = np.linspace(0.01, 5.0, 800)
    assert pdf_eval_many(dip, xs).min() < 0  # the sign change is real
    dip_path = tmp_path / "dip.json"
    write_me_file(dip, dip_path)
    assert cli_main(["convert", str(dip_path), str(tmp_path / "o2.json")]) == 3
    assert "positive-density" in capsys.readouterr().err
    _report("criterion 4 (failure modes)")
