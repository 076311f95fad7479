import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm
from scipy.stats import gamma as gamma_dist

import me2ph.core
import me2ph.pipeline
import me2ph.spectral
import me2ph.tail
import me2ph.validate
from me2ph import (
    DEFAULT_TOL,
    DeconvParams,
    FEBlock,
    InvalidRepresentationError,
    MERep,
    NumericError,
    PHRep,
    TailChoice,
    analyze_spectrum,
    append_tail,
    build_generator,
    check_markovian,
    compute_bounds,
    convert,
    find_tau,
    moments,
    pdf_eval_many,
    phrep_cdf_grid,
    phrep_moments,
    phrep_pdf,
    solve_gamma,
    to_dense,
)
from me2ph.spectral import expansion_values
from me2ph.tail import _SEARCH_JUMPS, _cheapest_path, _progression, _uniformized
from conftest import G8, certificate, fy_closed
from genutil import damped_oscillation_rep, rep_from_terms, sign_changing_rep


@pytest.fixture(scope="module")
def worked_spec(worked_residual):
    return analyze_spectrum(worked_residual)


@pytest.fixture(scope="module")
def worked_mono(worked_residual, worked_spec):
    return solve_gamma(worked_spec, build_generator(worked_spec))


@pytest.fixture(scope="module")
def worked_tailed(worked_mono, worked_spec):
    bounds = compute_bounds(
        worked_mono, 0.5, worked_spec,
        gamma_norm=1.5, eps1=0.05, eps2=0.069, round_rate_to=100.0,
    )
    return append_tail(worked_mono, TailChoice.certified(bounds)), bounds


def small_tailed_case(seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        rep = damped_oscillation_rep(rng)
        spec = analyze_spectrum(rep)
        mono = solve_gamma(spec, build_generator(spec))
        if mono.gamma.min() < 0:
            break
    else:
        raise AssertionError("no draw needed a tail")
    tau = find_tau(mono, spec)
    bounds = compute_bounds(mono, tau, spec)
    return rep, spec, mono, bounds, append_tail(mono, TailChoice.certified(bounds))


def test_tau_half_is_accepted_for_worked_example(worked_mono):
    assert float((worked_mono.gamma @ expm(G8 * 0.5)).min()) > 0


def test_find_tau_returns_positive_vector(worked_mono, worked_spec):
    tau = find_tau(worked_mono, worked_spec)
    assert float((worked_mono.gamma @ expm(G8 * tau)).min()) > 0


def test_find_tau_prices_the_rungs_for_nonnegative_gamma(worked_mono, worked_spec):
    # no shortcut for a vector that needs no tail: the rung is priced like
    # any other, and its head vector is positive
    mono = worked_mono.with_gamma(np.full(8, 1 / 8))
    tau = find_tau(mono, worked_spec)
    assert float((mono.gamma @ expm(G8 * tau)).min()) > 0


def test_find_tau_requires_positive_first_coordinate(worked_mono, worked_spec):
    g = np.array(worked_mono.gamma)
    g[0], g[1] = -g[0], g[1] + 2 * g[0]
    with pytest.raises(InvalidRepresentationError, match="first coordinate"):
        find_tau(worked_mono.with_gamma(g), worked_spec)


def test_compute_bounds_published_constants(worked_mono, worked_spec):
    bounds = compute_bounds(
        worked_mono, 0.5, worked_spec,
        gamma_norm=1.5, eps1=0.05, eps2=0.069, round_rate_to=100.0,
    )
    assert bounds.g == 10.0
    assert bounds.lambda_prime == pytest.approx(1.5 * 25 * np.exp(5) / (2 * 0.05 * 0.5))
    assert 111_000 <= bounds.lambda_prime <= 112_000
    assert bounds.lambda_dprime == pytest.approx(1.5 * np.exp(5) * 0.5 * 1000 / (2 * 0.069))
    assert 806_000 <= bounds.lambda_dprime <= 807_000
    assert bounds.rate == 806_600.0
    assert bounds.n == 403_300


def test_bounds_satisfy_their_defining_equations(worked_mono, worked_spec):
    tau = find_tau(worked_mono, worked_spec)
    b = compute_bounds(worked_mono, tau, worked_spec)
    assert b.gamma_norm * (b.g * b.tau) ** 2 * np.exp(b.g * b.tau) / (
        2 * b.lambda_prime * b.tau
    ) == pytest.approx(b.eps1, rel=1e-12)
    assert b.gamma_norm * np.exp(b.tau * b.g) * b.tau * b.g**3 / (
        2 * b.lambda_dprime
    ) == pytest.approx(b.eps2, rel=1e-12)
    assert b.rate == max(b.lambda_prime, b.lambda_dprime)
    assert b.n == int(np.ceil(b.tau * b.rate - 1e-9 * b.tau * b.rate))


def test_append_tail_worked_example(worked_tailed):
    ph, bounds = worked_tailed
    assert ph.u == 8
    assert ph.tail_n == 403_300
    assert ph.order == 403_308
    assert ph.tail_weights.min() >= 0
    assert ph.head_gamma.min() >= 0
    assert ph.head_gamma.sum() + ph.tail_weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_append_tail_rejects_an_empty_tail(worked_mono):
    mono = worked_mono.with_gamma(np.full(8, 1 / 8))
    with pytest.raises(InvalidRepresentationError, match="at least one state"):
        append_tail(mono, TailChoice(0.5, 0.0, 0))


def test_append_tail_reports_offending_entry_when_rate_too_small(worked_mono, worked_spec):
    bad = compute_bounds(worked_mono, 0.5, worked_spec, gamma_norm=1.5, eps1=1e6, eps2=1e6)
    with pytest.raises(NumericError, match=r"tail \(rate .*, n = 1\) is negative: smallest head entry") as exc:
        append_tail(worked_mono, TailChoice.certified(bad))
    head, q = me2ph.tail._tail_sweep(worked_mono.gamma, *_uniformized(worked_mono.matrix, bad.rate), 1)
    assert exc.value.detail["head_min"] == (int(head.argmin()), float(head.min()))
    assert exc.value.detail["tail_min"] == (0, float(q[0])) and q[0] > 0


def test_find_tau_names_the_rungs_climbed(worked_mono, worked_spec):
    # a dominant part of 1e-300 against -1 on the next state turns positive
    # only past tau = 1e300, beyond the ladder's top rung
    mono = worked_mono.with_gamma(np.r_[1e-300, -1.0, np.full(6, 2 / 6)])
    with pytest.raises(NumericError, match=r"every rung tau = \(n1/lambda1\) 2\^k, "
                                           r"k = -12 to 59 \(72 rungs\)"):
        find_tau(mono, worked_spec)


def test_tail_weights_sample_the_density():
    _, spec, mono, bounds, ph = small_tailed_case()
    lam, n = ph.tail_lambda, ph.tail_n
    # entry of power k approximates f(k/lam)/lam within eps2/lam for every k
    v_by_power = ph.tail_weights[::-1]
    f_vals = expansion_values(spec, np.arange(n) / lam)
    assert np.abs(lam * v_by_power - f_vals).max() <= bounds.eps2 * (1 + 1e-9)


def test_convert_long_body_tail_reads_working_spectrum(monkeypatch):
    # a 14-state body: re-analysing it is ill conditioned, so the tail bound
    # must read the density off the spectrum convert already holds.  The
    # search finds the tail without the bound; with no jumps to search
    # first, convert prices the bound, and the search under it finds the same
    def refuse(*args, **kwargs):
        raise AssertionError("pdf_eval_many called")

    orders = []
    original = me2ph.spectral.analyze_spectrum

    def recording(rep, *args, **kwargs):
        orders.append(rep.order)
        return original(rep, *args, **kwargs)

    monkeypatch.setattr(me2ph.core, "pdf_eval_many", refuse)
    monkeypatch.setattr(me2ph.spectral, "analyze_spectrum", recording)
    monkeypatch.setattr(me2ph.pipeline, "analyze_spectrum", recording)
    rep = rep_from_terms([(-1, [1]), (-1.8 + 3j, [0.55])])
    ph, report = convert(rep)
    assert report.monocyclic_order == 14
    assert report.bounds is None
    assert ph.tail_n == report.tail.n == 2
    assert ph.order == 16
    monkeypatch.setattr(me2ph.tail, "_SEARCH_JUMPS", 0)
    ph, report = convert(rep)
    assert report.bounds.n == certificate(rep).n == 3_454
    assert ph.tail_n == report.tail.n == 2
    assert orders and max(orders) <= rep.order


# damped oscillations e^-x + c e^(-a x) cos(b x + phi) whose body vector has a
# negative entry, as (a, b, c, phi): certified tails of 211 to 125,270 states
TAIL_ANCHORS = (
    (1.8886, 1.5962, 1.3108, 5.7930),
    (1.7609, 1.6521, 1.3171, 4.6424),
    (1.6637, 1.6039, 1.3316, 2.0512),
    (1.6753, 1.5995, 1.3370, 4.5519),
)
CERTIFIED_N = dict(zip(TAIL_ANCHORS, (211, 2_337, 21_503, 125_270)))


def _damped(a, b, c, phi) -> MERep:
    return rep_from_terms([(-1.0, [1.0]), (complex(-a, b), [c * np.exp(1j * phi) / 2])])


def _assert_searched_tail(rep, ph, report):
    """The applied tail is at most the certified one, found within as many
    jumps, or within the search's budget where no certificate was priced,
    and the output is Markovian and has the input's moments."""
    cap = _SEARCH_JUMPS if report.bounds is None else report.bounds.n
    assert ph.tail_n == report.tail.n <= cap
    assert report.tail.jumps <= cap
    assert ph.head_gamma.min() >= 0 and ph.tail_weights.min() >= 0
    got, ref = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    assert np.abs(got / ref - 1).max() <= DEFAULT_TOL.equivalence_rel


def test_smallest_tail_worked_example(worked_rep):
    ph, report = convert(worked_rep)
    _assert_searched_tail(worked_rep, ph, report)
    # the rung of the certified tau = 0.5 suffices; the search sweeps 100
    # jumps, without pricing the certified tail of 950,965 states
    assert report.bounds is None
    assert (report.tail.tau, report.tail.n, report.tail.jumps) == (0.5, 32, 100)


@pytest.mark.parametrize("params", TAIL_ANCHORS)
def test_smallest_tail_anchors(params):
    rep = _damped(*params)
    ph, report = convert(rep)
    _assert_searched_tail(rep, ph, report)
    assert report.bounds is None
    assert ph.tail_n < certificate(rep).n == CERTIFIED_N[params]
    # every searched tail keeps the rate at least the body's largest
    assert report.tail.rate >= max(blk.sigma for blk in ph.blocks) * (1 - 1e-12)


def test_tau_ladder_costs_one_expm_per_walk(monkeypatch, worked_mono, worked_spec, worked_rep):
    # find_tau and smallest_tail climb the same ladder, each from one expm at
    # its lowest rung.  A search that finds a tail makes the only call; where
    # it finds none, find_tau and compute_bounds make one each
    calls = []
    original = me2ph.tail.expm

    def counting(M):
        calls.append(M.shape)
        return original(M)

    monkeypatch.setattr(me2ph.tail, "expm", counting)
    find_tau(worked_mono, worked_spec)
    assert len(calls) == 1
    calls.clear()
    convert(worked_rep)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NumericError, match="exceeds 1e15"):
        convert(sign_changing_rep())
    assert len(calls) == 3


def test_smallest_tail_falls_back_to_the_certified_tail(monkeypatch):
    # every sweep but the certified tail's reports a negative head: the
    # search without a certificate finds nothing, so the certificate is
    # priced; no candidate below it passes, and the certified tail is applied
    rep = _damped(*TAIL_ANCHORS[0])
    certified = certificate(rep).n
    original = me2ph.tail._tail_sweep
    swept = []

    def failing_elsewhere(start, Q, rate, n):
        head, q = original(start, Q, rate, n)
        swept.append(n)
        return (head - 1.0 if n != certified else head), q

    monkeypatch.setattr(me2ph.tail, "_tail_sweep", failing_elsewhere)
    ph, report = convert(rep)
    assert ph.tail_n == report.tail.n == report.bounds.n == certified
    assert report.tail.rate == report.bounds.rate
    # the jumps reported are the second search's, under the certificate
    assert report.tail.jumps <= certified
    assert report.tail.jumps < sum(swept[:-1]) <= report.tail.jumps + _SEARCH_JUMPS
    assert swept[-1] == certified and certified not in swept[:-1]
    _assert_searched_tail(rep, ph, report)


def test_order_limit_holds_for_the_certified_tail(monkeypatch):
    # every sweep shorter than the certified 211 states fails, so the
    # searches find nothing: the certified tail does not fit the room a
    # limit of 218 leaves (the body has 8 states, no prefix), so it is
    # refused before it is swept, and it fits the room 219 leaves
    rep = _damped(*TAIL_ANCHORS[0])
    certified = CERTIFIED_N[TAIL_ANCHORS[0]]
    original = me2ph.tail._tail_sweep
    swept = []

    def failing_below_the_certified(start, Q, rate, n):
        head, q = original(start, Q, rate, n)
        swept.append(n)
        return (head - 1.0 if n < certified else head), q

    monkeypatch.setattr(me2ph.tail, "_tail_sweep", failing_below_the_certified)
    with pytest.raises(NumericError, match="order 219 exceeds the limit 218") as exc:
        convert(rep, max_order=218)
    assert exc.value.detail["n"] == certified
    assert swept and max(swept) <= 218 - 8
    swept.clear()
    ph, report = convert(rep, max_order=219)
    assert ph.order == 219 and report.monocyclic_order == 8
    assert (report.tail.tau, report.tail.rate, report.tail.n) == (report.bounds.tau, report.bounds.rate, certified)
    assert swept[-1] == certified


def test_smallest_tail_sweeps_nothing_above_the_order_limit(monkeypatch):
    # every candidate fails and the certified tail of 125,270 states is above
    # the limit: convert refuses without sweeping a tail longer than the room
    # the limit leaves, nor more jumps in total in either search, the one
    # without the certificate and the one under it
    rep = _damped(*TAIL_ANCHORS[3])
    body = convert(rep)[1].monocyclic_order
    original = me2ph.tail._tail_sweep
    swept = []

    def failing(start, Q, rate, n):
        head, q = original(start, Q, rate, n)
        swept.append(n)
        return head - 1.0, q

    monkeypatch.setattr(me2ph.tail, "_tail_sweep", failing)
    max_order = 100
    with pytest.raises(NumericError, match="exceeds the limit 100") as exc:
        convert(rep, max_order=max_order)
    assert exc.value.detail["n"] > max_order
    room = max_order - body  # no Erlang prefix
    assert swept and max(swept) <= room and sum(swept) <= 2 * room


def test_smallest_tail_fits_below_the_order_limit(worked_rep):
    # the certified tail of 950,965 states is far above the limit, the
    # searched one is not, and the search needs no certificate
    ph, report = convert(worked_rep, max_order=100)
    assert report.bounds is None and ph.order <= 100
    _assert_searched_tail(worked_rep, ph, report)


def test_sign_changing_input_fails_in_the_bound_after_the_search(monkeypatch):
    # negative between the positivity grid's points: no tail passes the
    # search, which stays within its budget, and no tail can be certified
    original = me2ph.tail._tail_sweep
    swept = []

    def counted(start, Q, rate, n):
        swept.append(n)
        return original(start, Q, rate, n)

    monkeypatch.setattr(me2ph.tail, "_tail_sweep", counted)
    with pytest.raises(NumericError, match="exceeds 1e15.*no tail passed a search of 16384 jumps"):
        convert(sign_changing_rep())
    assert swept and sum(swept) <= _SEARCH_JUMPS == 2**14


def test_phrep_pdf_matches_residual_closed_form(worked_tailed):
    ph, _ = worked_tailed
    for x in (0.25, 1.0, 2.0):
        assert phrep_pdf(ph, x) == pytest.approx(float(fy_closed(x)), rel=1e-5)


def test_phrep_pdf_at_zero(worked_tailed):
    ph, _ = worked_tailed
    # only the order-1 Erlang term survives at the origin
    expected = ph.tail_lambda * ph.tail_weights[-1]
    assert phrep_pdf(ph, 0.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(float(fy_closed(0.0)), rel=1e-6)


def test_phrep_pdf_pure_erlang_mixture():
    lam = 6.0
    weights = np.array([0.25, 0.15, 0.4, 0.2])
    n = weights.size
    ph = PHRep(
        head_gamma=np.zeros(1),
        blocks=(FEBlock(1, 1.0, 0.0),),
        tail_lambda=lam,
        tail_n=n,
        tail_weights=weights,
    )
    xs = np.array([0.05, n / lam, 1.5])
    orders = np.arange(n, 0, -1)  # weight k pairs with order n - k
    expected = sum(
        w * gamma_dist.pdf(xs, a=m, scale=1 / lam) for w, m in zip(weights, orders)
    )
    assert phrep_pdf(ph, xs) == pytest.approx(expected, rel=1e-10)


def test_phrep_pdf_agrees_with_dense_small_case():
    # a certified rate is far above the smallest workable one; shrink the tail
    # to dense-checkable size while the transformed vector stays nonnegative
    rep, _, mono, bounds, _ = small_tailed_case()
    ph = None
    for factor in (2.0, 4.0, 8.0, 16.0, 32.0):
        rate = bounds.g * factor
        n = int(np.ceil(bounds.tau * rate))
        if mono.order + n > 190:
            break
        try:
            ph = append_tail(
                mono,
                TailChoice(bounds.tau, rate, n),
            )
            break
        except NumericError:
            continue
    if ph is None:
        pytest.skip("no dense-checkable rate found")
    b, B = to_dense(ph)
    xs = np.linspace(0.0, 4.0, 21)
    dense_rep = MERep(b, B)
    assert phrep_pdf(ph, xs) == pytest.approx(pdf_eval_many(dense_rep, xs), rel=1e-8, abs=1e-12)


def test_phrep_pdf_dense_agreement_with_prefix():
    rng = np.random.default_rng(8)
    # Erlang(2, 1) gains a one-stage prefix and no tail
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    rep = MERep(np.array([1.0, 0.0]), A)
    ph, _ = convert(rep)
    assert ph.prefix is not None
    b, B = to_dense(ph)
    xs = np.linspace(0.0, 6.0, 25)
    assert phrep_pdf(ph, xs) == pytest.approx(
        pdf_eval_many(MERep(b, B), xs), rel=1e-8, abs=1e-12
    )


def test_phrep_cdf_grid_exact_with_prefix():
    # Erlang(2, 1) converts to a one-stage prefix and a body, no tail
    ph, _ = convert(MERep(np.array([1.0, 0.0]), np.array([[-1.0, 1.0], [0.0, -1.0]])))
    assert ph.prefix_length == 1 and ph.tail_n == 0
    b, B = to_dense(ph)
    xs = np.linspace(0.0, 6.0, 25)
    ref = np.array([1.0 - b @ expm(B * x) @ np.ones(b.size) for x in xs])
    assert np.abs(phrep_cdf_grid(ph, xs) - ref).max() <= 1e-10


def test_phrep_pdf_long_feedback_erlang_body():
    rep = rep_from_terms([(-1.0, [1.0]), (-1.1 + 2j, [0.3])])
    ph, _ = convert(rep)
    assert ph.order == 64 and ph.tail_n == 0
    xs = np.linspace(0.1, 10.0, 50)
    assert phrep_pdf(ph, xs) == pytest.approx(pdf_eval_many(rep, xs), rel=1e-9)


_BLOCKS = (FEBlock(1, 1.0, 0.0), FEBlock(3, 4.0, 0.4), FEBlock(4, 6.0, 0.7))
_HEAD = np.array([0.1, 0.0, 0.15, 0.05, 0.1, 0.0, 0.2, 0.05])
_WEIGHTS = np.array([0.05, 0.1, 0.1, 0.1])


def test_sparse_slow_chain_step_matches_dense(monkeypatch):
    # both stepping regimes of the sweep, the dense baby and giant steps and
    # the sparse product per jump, on the chain the evaluators sweep and on a
    # bare sweep of the body; the evaluators take the one chain's Poisson
    # sums, forced, as a uniform grid would otherwise skip the jump sequence
    ph = PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS, prefix=DeconvParams(2, 5.0))
    xs = np.linspace(0.0, 8.0, 33)
    built = []
    csr = scipy.sparse.csr_matrix
    monkeypatch.setattr(scipy.sparse, "csr_matrix", lambda a: built.append(a) or csr(a))
    monkeypatch.setattr(me2ph.tail, "_cheapest_path", lambda *_: "one chain")
    results = {}
    for regime, limit in {"dense": me2ph.tail._SPARSE_STATES, "sparse": 0}.items():
        with monkeypatch.context() as m:
            m.setattr(me2ph.tail, "_SPARSE_STATES", limit)
            head, q = me2ph.tail._tail_sweep(_HEAD, *_uniformized(ph.matrix, 6.0), 40)
            results[regime] = (phrep_pdf(ph, xs), phrep_cdf_grid(ph, xs), head, q)
    assert len(built) == 3  # pdf, cdf and the bare sweep each stepped sparse
    for ref, got in zip(results["dense"], results["sparse"]):
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("chain", ["prefixed", "mixed-sign"])
def test_tail_sweep_matches_stepwise(chain, worked_mono):
    # head and q against one product per jump, at jump counts that take no
    # giant step (1-3) and at either side of a whole number of giant steps
    if chain == "prefixed":
        start, Q = me2ph.tail._behind_prefix(DeconvParams(2, 5.0),
                                             me2ph.tail.chain_generator(_BLOCKS), _HEAD)
        rate = 6.0
    else:
        # tail construction tests the signs of the head
        start, Q, rate = worked_mono.gamma, worked_mono.matrix, 16.0
        assert start.min() < 0
    u = Q.shape[0]
    c = me2ph.tail._baby_steps(1000, u)[0]
    ns = (1, 2, 3, c * c - 1, c * c, c * c + 1, 1000)
    assert 1 < c < 1000 and {n % me2ph.tail._baby_steps(n, u)[0] for n in ns[3:6]} == {c - 1, 0, 1}
    M = np.eye(u) + Q / rate
    e = np.maximum(-(Q @ np.ones(u)), 0.0) / rate
    v, heads, ref = np.array(start, dtype=float), [], []
    for _ in range(max(ns)):
        heads.append(v)
        ref.append(v @ e)
        v = v @ M
    heads.append(v)
    for n in ns:
        head, q = me2ph.tail._tail_sweep(start, M, e, n)
        assert head == pytest.approx(heads[n], rel=1e-12, abs=1e-300)
        assert q == pytest.approx(np.array(ref[:n]), rel=1e-12, abs=1e-300)
        # without the head, q alone, at the baby steps priced for it
        head, q = me2ph.tail._tail_sweep(start, M, e, n, head=False)
        assert head is None
        assert q == pytest.approx(np.array(ref[:n]), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("ph, xs", [
    pytest.param(PHRep(np.zeros(8), _BLOCKS, 8.0, 4, _WEIGHTS / _WEIGHTS.sum()),
                 np.linspace(0.0, 3.0, 25), id="tail"),
    pytest.param(PHRep(_HEAD / _HEAD.sum(), _BLOCKS, 0.0, 0, np.zeros(0)),
                 np.linspace(0.0, 8.0, 33), id="body"),
    pytest.param(PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS),
                 np.linspace(0.0, 8.0, 33), id="body-tail"),
    pytest.param(PHRep(np.zeros(8), _BLOCKS, 8.0, 4, _WEIGHTS / _WEIGHTS.sum(),
                       prefix=DeconvParams(2, 5.0)),
                 np.linspace(0.0, 6.0, 25), id="prefix-tail"),
    pytest.param(PHRep(_HEAD / _HEAD.sum(), _BLOCKS, 0.0, 0, np.zeros(0),
                       prefix=DeconvParams(2, 5.0)),
                 np.linspace(0.0, 8.0, 33), id="prefix-body"),
    pytest.param(PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS, prefix=DeconvParams(2, 5.0)),
                 np.linspace(0.0, 8.0, 33), id="prefix-body-tail"),
    # the Erlang(3, 0.5) window [0, 92] spans many panels of 16/6, and the
    # grid lies inside it
    pytest.param(PHRep(_HEAD, _BLOCKS, 0.5, 3, np.array([0.05, 0.15, 0.15]),
                       prefix=DeconvParams(2, 5.0)),
                 np.linspace(0.0, 30.0, 31), id="prefix-body-slow-tail"),
])
def test_phrep_evaluators_match_dense_generator(ph, xs, monkeypatch):
    # through every path, forced: the Poisson sums of the tail convolved with
    # the slow chain and of the one chain, and the powers of one step on the
    # uniform grid
    b, B = to_dense(ph)
    ones = np.ones(b.size)
    survival = np.array([b @ expm(B * x) for x in xs])
    for path in ("convolution", "one chain", "grid"):
        monkeypatch.setattr(me2ph.tail, "_cheapest_path", lambda *_, v=path: v)
        assert phrep_pdf(ph, xs) == pytest.approx(survival @ (-B @ ones), rel=1e-10, abs=1e-14)
        assert np.abs(phrep_cdf_grid(ph, xs) - (1.0 - survival @ ones)).max() <= 1e-12


def _short_outputs(worked_rep):
    """The paper example's searched output (41 states) and the anchors' (9 to
    18), each with its input's mean."""
    reps = [worked_rep] + [_damped(*p) for p in TAIL_ANCHORS]
    return [(convert(rep)[0], moments(rep, 1)[0]) for rep in reps]


def _poisson_pick(ph, xs, grid):
    """The rule's pick with the grid path left out, as on scattered points."""
    return _cheapest_path(ph, xs, None)


def test_short_outputs_take_one_chain_and_long_tails_the_convolution(
        worked_rep, worked_conversion, monkeypatch):
    # on a Monte Carlo check's grid of 4,097 points the powers of one step;
    # without them, as on scattered points, the one chain; and the paper
    # output at one point takes the one chain too
    outputs = _short_outputs(worked_rep)
    for ph, mean in outputs:
        assert ph.tail_n and ph.order <= 41
        grid = np.linspace(0.0, 20 * mean, 4097)
        assert _cheapest_path(ph, grid, _progression(grid)) == "grid"
        assert _cheapest_path(ph, grid, None) == "one chain"
    ph, mean = outputs[0]
    assert _cheapest_path(ph, np.array([0.7 * mean]), None) == "one chain"
    # the published constants' 403,309-state output is never densified
    ph = worked_conversion[0]
    grid = np.linspace(0.0, 20.0, 4097)
    assert ph.order == 403_309 and _cheapest_path(ph, grid, _progression(grid)) == "convolution"

    def refused(*args, **kwargs):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(me2ph.tail, "to_dense", refused)
    assert phrep_cdf_grid(ph, grid[::64])[-1] == pytest.approx(1.0, abs=1e-6)
    assert phrep_pdf(ph, grid[::64]).max() > 0


# damped oscillation whose certificate overflows: a 241-state body, which the
# sweep steps sparse, and a searched 64-state tail
_OVERFLOWING = (1.39252846017499, 29.982029705468896, 1.0038715080476077, 3.402101183476623)
# scattered points in units of the mean: 1 point, 16 on [0, 4) and 257 on
# [0, 20), as scripts/path_prices.py draws them
_rng = np.random.default_rng(0)
_SCATTERED = (np.array([0.7]), 4 * np.sort(_rng.random(16)), 20 * np.sort(_rng.random(257)))


def test_rule_picks_the_faster_poisson_path_on_scattered_points():
    # the faster path by scripts/path_prices.py's timings: the first anchor's
    # certified 219-state output takes the convolution at 1 and 16 points
    # and the one chain at 257; the 305-state output the convolution at all
    rep = _damped(*TAIL_ANCHORS[0])
    spec = analyze_spectrum(rep).scaled(rep.mean_scale)
    mono = solve_gamma(spec, build_generator(spec))
    certified = append_tail(mono, TailChoice.certified(compute_bounds(mono, find_tau(mono, spec), spec)))
    searched = convert(_damped(*_OVERFLOWING))[0]
    assert (certified.order, searched.order) == (219, 305)
    for ph, picks in ((certified, ["convolution", "convolution", "one chain"]),
                      (searched, ["convolution"] * 3)):
        mean = phrep_moments(ph, 1)[0]
        assert [_cheapest_path(ph, mean * xs, _progression(mean * xs)) for xs in _SCATTERED] == picks


def test_one_chain_agrees_with_the_convolution_on_short_outputs(worked_rep, monkeypatch):
    # both Poisson paths, forced, on a uniform grid the powers of one step
    # would take
    for ph, mean in _short_outputs(worked_rep):
        xs = np.linspace(0.0, 20 * mean, 257)
        got = {}
        for path in ("convolution", "one chain"):
            monkeypatch.setattr(me2ph.tail, "_cheapest_path", lambda *_, v=path: v)
            got[path] = phrep_pdf(ph, xs), phrep_cdf_grid(ph, xs)
        (pdf, cdf), (pdf1, cdf1) = got["convolution"], got["one chain"]
        assert np.abs(pdf1 - pdf).max() <= 1e-12 * pdf.max()
        assert np.abs(cdf1 - cdf).max() <= 1e-12


def test_grid_cdf_matches_the_poisson_sums_on_monte_carlo_grids(worked_rep, monkeypatch):
    # the grids of a 20,000-sample check on the paper example's output, the
    # two smallest anchors' and the long-cycle bodies of 64 to 190 states,
    # each by the powers of one step and by the Poisson sums, forced
    reps = [worked_rep] + [_damped(*p) for p in TAIL_ANCHORS[:2]]
    reps += [rep_from_terms([(-1.0, [1.0]), (-1.1 + k * 1j, [0.3])]) for k in (2, 4, 6)]
    orders = []
    for rep in reps:
        ph = convert(rep)[0]
        orders.append(ph.order)
        grid = me2ph.validate._check_sample(ph, 20_000, 1502)[1]
        assert _cheapest_path(ph, grid, _progression(grid)) == "grid"
        F = phrep_cdf_grid(ph, grid)
        with monkeypatch.context() as m:
            m.setattr(me2ph.tail, "_cheapest_path", _poisson_pick)
            assert np.abs(F - phrep_cdf_grid(ph, grid)).max() <= 1e-11
        assert F[0] == 0.0 and np.all(np.diff(F) >= 0.0)
    assert orders == [41, 9, 10, 64, 127, 190]


_GRID_OUTPUTS = [
    pytest.param(PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS, prefix=DeconvParams(2, 5.0)),
                 id="prefix-body-tail"),
    pytest.param(PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS), id="body-tail"),
    pytest.param(PHRep(np.zeros(8), _BLOCKS, 8.0, 4, _WEIGHTS / _WEIGHTS.sum()), id="tail"),
]


def _both_paths(ph, xs, monkeypatch):
    """pdf and cdf on ``xs`` by the powers of one step and by the Poisson sums, forced."""
    got = []
    for pick in (lambda *_: "grid", _poisson_pick):
        with monkeypatch.context() as m:
            m.setattr(me2ph.tail, "_cheapest_path", pick)
            got.append((phrep_pdf(ph, xs), phrep_cdf_grid(ph, xs)))
    return got


@pytest.mark.parametrize("ph", _GRID_OUTPUTS)
@pytest.mark.parametrize("x0", [0.0, 0.7])
def test_grid_path_matches_the_poisson_sums(ph, x0, monkeypatch):
    # from the origin, and from x0 > 0, where the sweep starts at b exp(B x0)
    xs = np.linspace(x0, x0 + 9.0, 46)
    (pdf, cdf), (pdf_ref, cdf_ref) = _both_paths(ph, xs, monkeypatch)
    assert np.abs(pdf - pdf_ref).max() <= 1e-12 * pdf_ref.max()
    assert np.abs(cdf - cdf_ref).max() <= 1e-12
    assert np.all(np.diff(cdf) >= 0.0) and (cdf[0] == 0.0) == (x0 == 0.0)


def test_grid_path_needs_a_progression(monkeypatch):
    # a point moved by 4 ulps of the largest stays on the grid; by 16, the
    # Poisson sums take the points, though the rule prices the grid lowest
    # on a progression
    ph = PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS, prefix=DeconvParams(2, 5.0))
    xs = np.linspace(0.0, 8.0, 33)
    assert _progression(xs) == (0.0, 0.25)
    near, off = xs.copy(), xs.copy()
    near[7] += 4 * np.spacing(8.0)
    off[7] += 16 * np.spacing(8.0)
    assert _progression(near) == (0.0, 0.25)
    assert _progression(off) is None
    for bad in (xs[:1], xs[::-1], np.zeros(4), np.r_[xs[:-1], np.nan], np.r_[xs[:-1], np.inf]):
        assert _progression(bad) is None
    assert _cheapest_path(ph, near, _progression(near)) == "grid"

    def refused(*args, **kwargs):
        raise AssertionError("grid path taken")

    monkeypatch.setattr(me2ph.tail, "_grid_values", refused)
    b, B = to_dense(ph)
    ref = np.array([b @ expm(B * x) @ (-B @ np.ones(b.size)) for x in off])
    assert phrep_pdf(ph, off) == pytest.approx(ref, rel=1e-10, abs=1e-14)
    phrep_cdf_grid(ph, off)


def test_grid_rule_on_the_benchmark_grids(worked_rep):
    # the 41-state paper output on a 513-point cdf grid takes the powers of
    # one step; the 190-state long-cycle body on a 50-point pdf grid from
    # x0 = 0.1, which would need a second expm, keeps the Poisson sums
    ph = convert(worked_rep)[0]
    xs = np.linspace(0.0, 12.0, 513)
    assert ph.order == 41 and _cheapest_path(ph, xs, _progression(xs)) == "grid"
    ph = convert(rep_from_terms([(-1.0, [1.0]), (-1.1 + 6j, [0.3])]))[0]
    xs = np.linspace(0.1, 10.0, 50)
    assert ph.order == 190 and _cheapest_path(ph, xs, _progression(xs)) == "convolution"


def test_grid_rule_bounds_only_skip_sizing_windows(worked_rep, monkeypatch):
    # _fewest_terms and _most_terms bound every window, so the bounds on the
    # Poisson prices never change a choice: with them out, each is the same
    cs = np.concatenate([np.linspace(0.0, 200.0, 4001), np.geomspace(1e-6, 1e9, 2000)])
    lo, hi = me2ph.tail._window(cs)
    fewest = np.array([me2ph.tail._fewest_terms(c) for c in cs])
    assert np.all(fewest <= hi - lo + 1) and np.all(hi - lo + 1 <= fewest + 2)
    outputs = [convert(worked_rep)[0], PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS, prefix=DeconvParams(2, 5.0))]
    outputs += [convert(_damped(*p))[0] for p in TAIL_ANCHORS[:2]]
    outputs += [convert(rep_from_terms([(-1.0, [1.0]), (-1.1 + k * 1j, [0.3])]))[0] for k in (2, 6)]
    grids = [np.linspace(x0, x1, n) for x0, x1 in ((0.0, 4.0), (0.5, 12.0), (0.0, 40.0))
             for n in (2, 16, 513, 4097)]
    chosen = [_cheapest_path(ph, xs, _progression(xs)) for ph in outputs for xs in grids]
    monkeypatch.setattr(me2ph.tail, "_fewest_terms", lambda c: -np.inf)
    monkeypatch.setattr(me2ph.tail, "_most_terms", lambda c: np.inf)
    assert chosen == [_cheapest_path(ph, xs, _progression(xs)) for ph in outputs for xs in grids]
    assert "grid" in chosen and len(set(chosen)) > 1


def test_to_dense_matches_pair_built_entry_by_entry():
    ph = PHRep(_HEAD, _BLOCKS, 8.0, 4, _WEIGHTS, prefix=DeconvParams(2, 5.0))
    b, B = to_dense(ph)
    ref = np.zeros((14, 14))
    # prefix: states 0-1 at rate 5, the last feeding the body and the tail
    ref[0, 0], ref[0, 1], ref[1, 1] = -5.0, 5.0, -5.0
    ref[1, 2:] = 5.0 * np.concatenate([_HEAD, _WEIGHTS])
    # body: FE(1, 1, 0) at 2, FE(3, 4, 0.4) at 3-5, FE(4, 6, 0.7) at 6-9
    ref[2, 2], ref[2, 3] = -1.0, 1.0
    for i in (3, 4, 5):
        ref[i, i] = -4.0
    ref[3, 4], ref[4, 5], ref[5, 3], ref[5, 6] = 4.0, 4.0, 0.4 * 4.0, 0.6 * 4.0
    for i in (6, 7, 8, 9):
        ref[i, i] = -6.0
    ref[6, 7], ref[7, 8], ref[8, 9], ref[9, 6], ref[9, 10] = 6.0, 6.0, 6.0, 0.7 * 6.0, 0.3 * 6.0
    # tail: Erlang(4, 8) at 10-13, absorbing from 13
    for i in (10, 11, 12, 13):
        ref[i, i] = -8.0
    ref[10, 11], ref[11, 12], ref[12, 13] = 8.0, 8.0, 8.0
    assert np.abs(b - np.eye(1, 14)[0]).max() <= 1e-15
    assert np.abs(B - ref).max() <= 1e-15 * np.abs(ref).max()


def test_tail_sweep_chunk_stays_in_memory_budget():
    # at u = 600 the sweep takes a sparse product per jump: no stack of powers
    u, n, rate = 600, 30, 10.0
    rng = np.random.default_rng(4)
    G = rng.normal(size=(u, u)) / (2 * np.sqrt(u)) - 2.0 * np.eye(u)
    gamma = rng.random(u)
    tracemalloc.start()
    try:
        head, q = me2ph.tail._tail_sweep(gamma, *_uniformized(G, rate), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    M = np.eye(u) + G / rate
    e = -(G @ np.ones(u)) / rate
    v, ref = gamma, np.empty(n)
    for j in range(n):
        ref[j] = v @ e
        v = v @ M
    assert head == pytest.approx(v, rel=1e-12, abs=1e-12 * np.abs(v).max())
    assert q == pytest.approx(ref, rel=1e-12, abs=1e-12 * np.abs(ref).max())


def test_tail_sweep_long_cycle_body_matches_stepwise():
    # the long-cycle k = 6 body: 190 states, one dense product per jump
    ph, _ = convert(rep_from_terms([(-1.0, [1.0]), (-1.1 + 6j, [0.3])]))
    assert ph.u == 190
    G, rate, n = ph.matrix, max(b.sigma for b in ph.blocks), 2_692
    head, q = me2ph.tail._tail_sweep(ph.head_gamma, *_uniformized(G, rate), n)
    M = np.eye(ph.u) + G / rate
    e = np.maximum(-(G @ np.ones(ph.u)), 0.0) / rate
    v, ref = ph.head_gamma, np.empty(n)
    for j in range(n):
        ref[j] = v @ e
        v = v @ M
    assert head == pytest.approx(v, rel=1e-12, abs=1e-12 * np.abs(v).max())
    assert q == pytest.approx(ref, rel=1e-12, abs=1e-12 * np.abs(ref).max())


def test_phrep_pdf_refuses_too_many_jumps():
    ph = PHRep(np.ones(1), (FEBlock(1, 1e6, 0.0),), 0.0, 0, np.zeros(0))
    assert phrep_pdf(ph, 1e-6) == pytest.approx(1e6 * np.exp(-1.0), rel=1e-12)
    with pytest.raises(NumericError, match="jumps"):
        phrep_pdf(ph, 100.0)


@pytest.mark.parametrize("ph", [
    pytest.param(PHRep(np.ones(1), (FEBlock(1, 1.0, 0.0),), 0.0, 0, np.zeros(0)), id="body"),
    pytest.param(PHRep(np.array([0.5]), (FEBlock(1, 1.0, 0.0),), 2.0, 1, np.array([0.5])),
                 id="body-and-tail"),
])
def test_phrep_evaluation_refuses_huge_and_nan_points(ph):
    # a jump count past int64 is refused before it is cast
    for x in (1e300, np.inf):
        with pytest.raises(NumericError, match="jumps"):
            phrep_pdf(ph, x)
        with pytest.raises(NumericError, match="jumps"):
            phrep_cdf_grid(ph, np.array([0.0, x]))
    for evaluate in (phrep_pdf, phrep_cdf_grid):
        with pytest.raises(InvalidRepresentationError, match="NaN"):
            evaluate(ph, np.array([1.0, np.nan]))


def test_evaluated_phrep_is_freed(worked_tailed):
    ph = replace(worked_tailed[0])
    phrep_pdf(ph, np.array([0.5, 1.0]))
    phrep_cdf_grid(ph, np.array([0.5, 1.0]))
    phrep_moments(ph, 2)
    ref = weakref.ref(ph)
    del ph
    gc.collect()
    assert ref() is None


def test_phrep_moments_match_input_and_dense():
    from me2ph import moments

    rep, _, mono, bounds, ph = small_tailed_case(seed=5)
    # the tail extension is an exact transformation, so all moments carry over
    assert phrep_moments(ph, 5) == pytest.approx(moments(rep, 5), rel=1e-8)

    small = None
    for factor in (2.0, 4.0, 8.0, 16.0):
        rate = bounds.g * factor
        n = int(np.ceil(bounds.tau * rate))
        try:
            small = append_tail(
                mono,
                TailChoice(bounds.tau, rate, n),
            )
            break
        except NumericError:
            continue
    if small is not None and small.order <= 2000:
        b, B = to_dense(small, limit=2000)
        assert phrep_moments(small, 5) == pytest.approx(moments(MERep(b, B), 5), rel=1e-9)


def test_exp_row_dominance_of_assembled_generator():
    E40 = expm(G8 * 40.0)
    ratios = np.abs(E40[1:, :]) / np.abs(E40[0, :])
    assert ratios.max() < 0.05
    E50 = expm(G8 * 50.0)
    r40 = E40[0, :] / (40.0 * np.exp(-40.0))
    r50 = E50[0, :] / (50.0 * np.exp(-50.0))
    # entries past the dominant chain settle onto the common envelope
    assert np.abs(r40[1:] / r50[1:] - 1.0).max() < 0.10
