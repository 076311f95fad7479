import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import me2ph.tail
import me2ph.validate
from me2ph import (
    DEFAULT_TOL,
    DeconvParams,
    FEBlock,
    InvalidRepresentationError,
    MERep,
    PHRep,
    analyze_spectrum,
    check_dec,
    check_equivalence,
    check_markovian,
    check_positive_density,
    convert,
    monte_carlo_check,
    pdf_eval_many,
    phrep_moments,
)
from me2ph.validate import simulate_absorption_times
from genutil import multi_class_generator, random_markovian_rep, rep_from_terms


def erlang_rep(k, rate):
    A = np.diag(np.full(k, -rate)) + np.diag(np.full(k - 1, rate), 1)
    alpha = np.zeros(k)
    alpha[0] = 1.0
    return MERep(alpha, A)


def sign_changing_rep():
    """Valid spectrum and dominance, but the density dips below zero."""
    return rep_from_terms([(-1.0 + 0j, [1.0]), (-2.0 + 4j, [2.5])])


def test_markovian_final_output(worked_conversion):
    ph, _ = worked_conversion
    assert check_markovian(ph).ok


def test_markovian_rejects_original_input(worked_rep):
    verdict = check_markovian(worked_rep)
    assert not verdict.ok
    assert "alpha[" in verdict.violation


def test_markovian_accepts_erlang_chain():
    assert check_markovian(erlang_rep(4, 1.0)).ok


@pytest.mark.parametrize("c", [1.0, 1e-8])
def test_markovian_slack_is_relative_to_the_matrix(c):
    # the off-diagonal entry is 1% of the diagonal at every time unit
    rep = MERep(np.array([0.5, 0.5]), c * np.array([[-1.0, -0.01], [0.0, -1.0]]))
    verdict = check_markovian(rep)
    assert not verdict.ok
    assert "off-diagonal A[0,1]" in verdict.violation


ONE_STATE = (FEBlock(1, 1.0, 0.0),)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: PHRep(np.array([1.2, -0.2]), ONE_STATE * 2, 0.0, 0, np.zeros(0)),
                 id="negative-head-entry"),
    pytest.param(lambda: PHRep(np.array([0.6]), ONE_STATE, 2.0, 2, np.array([0.5, -0.1])),
                 id="negative-tail-weight"),
    pytest.param(lambda: PHRep(np.array([1.0 + 2 * DEFAULT_TOL.alpha_sum]), ONE_STATE, 0.0, 0,
                               np.zeros(0)),
                 id="initial-mass-off"),
    pytest.param(lambda: PHRep(np.array([1.0]), (FEBlock(1, 0.0, 0.0),), 0.0, 0, np.zeros(0)),
                 id="block-sigma-zero"),
    pytest.param(lambda: PHRep(np.ones(2) / 2, (FEBlock(2, 1.0, 1.0),), 0.0, 0, np.zeros(0)),
                 id="block-z-one"),
    pytest.param(lambda: PHRep(np.ones(2) / 2, (FEBlock(2, 1.0, -0.1),), 0.0, 0, np.zeros(0)),
                 id="block-z-negative"),
    pytest.param(lambda: PHRep(np.array([0.5]), ONE_STATE, 0.0, 1, np.array([0.5])),
                 id="tail-rate-zero"),
    pytest.param(lambda: PHRep(np.array([1.0]), ONE_STATE, 0.0, 0, np.zeros(0),
                               prefix=DeconvParams(1, 0.0)),
                 id="prefix-rate-zero"),
    pytest.param(lambda: PHRep(np.array([np.nan]), ONE_STATE, 0.0, 0, np.zeros(0)),
                 id="nan-head-entry"),
    pytest.param(lambda: PHRep(np.array([0.5]), ONE_STATE, 2.0, 1, np.array([np.nan])),
                 id="nan-tail-weight"),
    pytest.param(lambda: PHRep(np.array([0.5]), ONE_STATE, np.inf, 1, np.array([0.5])),
                 id="tail-rate-infinite"),
    pytest.param(lambda: PHRep(np.array([1.0]), (FEBlock(1, np.inf, 0.0),), 0.0, 0, np.zeros(0)),
                 id="block-sigma-infinite"),
    pytest.param(lambda: PHRep(np.array([1.0]), ONE_STATE, 0.0, 0, np.zeros(0),
                               prefix=DeconvParams(1, np.inf)),
                 id="prefix-rate-infinite"),
    pytest.param(lambda: PHRep(np.array([1.0]), ONE_STATE, 0.0, 0, np.zeros(0),
                               prefix=SimpleNamespace(l=1, mu=2.0)),
                 id="prefix-not-deconv-params"),
])
def test_phrep_constructor_rejects_non_markovian(build):
    with pytest.raises(InvalidRepresentationError):
        build()


def test_markovian_structured_checks_mass_against_caller_tolerance():
    loose = DEFAULT_TOL.replace(alpha_sum=1e-3)
    ph = PHRep(np.array([1.0 + 1e-6]), ONE_STATE, 0.0, 0, np.zeros(0), tol=loose)
    assert check_markovian(ph, loose).ok
    verdict = check_markovian(ph)
    assert not verdict.ok and "initial mass" in verdict.violation


def test_positive_density_worked_example(worked_minimal):
    spec = analyze_spectrum(worked_minimal)
    assert check_positive_density(spec).ok


def test_positive_density_detects_sign_change():
    rep = sign_changing_rep()
    spec = analyze_spectrum(rep)
    # confirm the dip is real before trusting the checker
    xs = np.linspace(0.01, 5.0, 800)
    assert pdf_eval_many(rep, xs).min() < 0
    verdict = check_positive_density(spec)
    assert not verdict.ok
    assert verdict.failed_part == "grid"


def test_positive_density_exponential():
    rep = MERep(np.array([1.0]), np.array([[-1.0]]))
    assert check_positive_density(analyze_spectrum(rep)).ok


def test_equivalence_self(worked_rep):
    verdict = check_equivalence(worked_rep, worked_rep)
    assert verdict.ok
    assert verdict.max_rel_error == 0.0
    assert verdict.moments_rel_error == 0.0


def test_equivalence_of_pipeline_output(worked_rep, worked_conversion):
    ph, _ = worked_conversion
    grid = np.linspace(0.2, 10.0, 50)
    verdict = check_equivalence(worked_rep, ph, grid=grid, rel_tol=1e-5)
    assert verdict.ok


def test_equivalence_distinguishes_rates():
    e1 = MERep(np.array([1.0]), np.array([[-1.0]]))
    e2 = MERep(np.array([1.0]), np.array([[-2.0]]))
    assert not check_equivalence(e1, e2).ok


def test_equivalence_default_grid_is_in_units_of_the_mean():
    # Erlang(2, 1) against the half-half start on the same matrix
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    verdicts = [check_equivalence(MERep(np.array([1.0, 0.0]), c * A), MERep(np.array([0.5, 0.5]), c * A))
                for c in (1.0, 2.0**20, 2.0**-20)]
    assert [v.max_rel_error for v in verdicts] == [verdicts[0].max_rel_error] * 3
    assert verdicts[0].max_rel_error > 1.0
    assert not any(v.ok for v in verdicts)
    assert verdicts[1].grid == tuple(x / 2.0**20 for x in verdicts[0].grid)


def test_monte_carlo_exponential():
    ph, _ = convert(MERep(np.array([1.0]), np.array([[-1.0]])))
    ks = monte_carlo_check(ph, samples=100_000, seed=11)
    assert ks <= 0.01


def test_monte_carlo_erlang():
    ph, _ = convert(erlang_rep(4, 2.0))
    ks = monte_carlo_check(ph, samples=100_000, seed=11)
    assert ks <= 0.01


@pytest.mark.parametrize("samples", [0, -3])
def test_monte_carlo_refuses_empty_sample(samples):
    ph, _ = convert(MERep(np.array([1.0]), np.array([[-1.0]])))
    with pytest.raises(InvalidRepresentationError, match="samples"):
        monte_carlo_check(ph, samples=samples)


def test_monte_carlo_deterministic(worked_conversion):
    ph, _ = convert(erlang_rep(2, 1.0))
    a = monte_carlo_check(ph, samples=20_000, seed=5)
    b = monte_carlo_check(ph, samples=20_000, seed=5)
    assert a == b


def test_monte_carlo_takes_one_step_powers_up_to_the_sparse_limit(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("refused evaluator called")

    # up to _SPARSE_STATES states the grid needs no Poisson sum
    ph, _ = convert(erlang_rep(4, 2.0))
    with monkeypatch.context() as m:
        m.setattr(me2ph.tail, "_poisson_sum", refused)
        assert monte_carlo_check(ph, samples=5000, seed=3) <= 0.03
    # above, one dense step would make the sweep sparse: the Poisson sums
    # evaluate the grid, and no step is formed: an Erlang(300, 300) tail
    ph = PHRep(np.zeros(1), (FEBlock(1, 1.0, 0.0),), 300.0, 300, np.eye(1, 300)[0])
    assert ph.order > me2ph.tail._SPARSE_STATES
    monkeypatch.setattr(me2ph.tail, "expm", refused)
    times, grid = me2ph.validate._check_sample(ph, 5000, 3)
    ks = me2ph.validate._ks_statistic(times, grid, me2ph.tail.phrep_cdf_grid(ph, grid))
    assert monte_carlo_check(ph, samples=5000, seed=3) == ks <= 0.03


def feedback_phrep():
    """Prefix, three feedback blocks (two with z > 0) and a tail, with head
    mass on mid-block positions."""
    blocks = (FEBlock(1, 1.0, 0.0), FEBlock(3, 4.0, 0.4), FEBlock(4, 6.0, 0.7))
    head = np.array([0.1, 0.0, 0.15, 0.05, 0.1, 0.0, 0.2, 0.05])
    weights = np.array([0.05, 0.1, 0.1, 0.1])
    return PHRep(head, blocks, 8.0, 4, weights, prefix=DeconvParams(2, 5.0))


def test_simulated_moments_match_structured_moments():
    ph = feedback_phrep()
    samples = 400_000
    t = simulate_absorption_times(ph, samples, np.random.default_rng(3))
    exact = phrep_moments(ph, 3)
    for k in (1, 2, 3):
        stderr = np.std(t**k) / np.sqrt(samples)
        assert abs(np.mean(t**k) - exact[k - 1]) < 5 * stderr


def test_simulation_never_builds_dense_body(monkeypatch):
    def refuse(blocks):
        raise AssertionError("dense body generator built")

    monkeypatch.setattr(me2ph.tail, "chain_generator", refuse)
    t = simulate_absorption_times(feedback_phrep(), 10_000, np.random.default_rng(4))
    assert np.isfinite(t).all() and t.min() > 0


def test_mc_crosscheck_script_passes():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "mc_crosscheck.py"), "--samples", "20000"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout and "[ok]" in proc.stdout


def test_tail_census_script_runs_on_the_benchmark_inputs():
    # the paper example and the random batch alone: the script's imports of
    # the package's private tail names, and its counts
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "tail_census.py"), "--damped", "0", "--erlang-damped", "0"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "inputs: 199" in lines and "certified tail: 0" in lines
    assert not any(line.startswith("failed:") for line in lines)


def test_worked_example_script_passes():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_worked_example.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert "final order: 403309" in proc.stdout


def test_random_markovian_reps_have_positive_density_and_dominance():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        rep = random_markovian_rep(rng, int(rng.integers(2, 6)))
        spec = analyze_spectrum(rep)
        assert check_dec(spec).ok
        xs = np.linspace(0.01, 30.0, 400)
        assert pdf_eval_many(rep, xs).min() > 0
        assert check_positive_density(spec).ok


def test_multi_class_generator_dominance():
    A = multi_class_generator()
    alpha = np.full(10, 0.1)
    rep = MERep(alpha, A)
    assert check_markovian(rep).ok
    spec = analyze_spectrum(rep)
    report = check_dec(spec)
    assert report.ok
    assert report.dominant_eigenvalue == pytest.approx(-1.0, abs=1e-9)
    assert check_positive_density(spec).ok
