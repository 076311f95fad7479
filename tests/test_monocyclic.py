import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from me2ph import (
    DecViolationError,
    FEBlock,
    MERep,
    NumericError,
    analyze_spectrum,
    build_generator,
    check_equivalence,
    convert,
    fe_block_for,
    minimal_representation,
    pdf_eval_many,
    solve_gamma,
)
from me2ph import monocyclic
from me2ph.monocyclic import chain_generator, solve_transformation_matrix
from conftest import G8, GAMMA8
from genutil import damped_oscillation_rep, rep_from_terms


def test_fe_block_worked_pair():
    blk = fe_block_for(-5 + 3j, lambda1=1.0)
    assert blk.b == 4
    assert blk.sigma == pytest.approx(5.0, abs=1e-12)
    assert blk.z == pytest.approx(81 / 625, abs=1e-12)
    expected = np.array(
        [
            [-5.0, 5, 0, 0],
            [0, -5, 5, 0],
            [0, 0, -5, 5],
            [81 / 125, 0, 0, -5],
        ]
    )
    assert blk.matrix() == pytest.approx(expected, abs=1e-9)


def test_fe_block_real_eigenvalue_degenerate():
    blk = fe_block_for(-3.0, lambda1=1.0)
    assert (blk.b, blk.sigma, blk.z) == (1, 3.0, 0.0)
    assert blk.degenerate


def test_fe_block_contains_target_pair():
    rng = np.random.default_rng(2)
    for _ in range(25):
        lam1 = rng.uniform(0.5, 2.0)
        a = lam1 + rng.uniform(0.2, 4.0)
        c = rng.uniform(0.1, 5.0)
        blk = fe_block_for(complex(-a, c), lam1)
        evs = blk.eigenvalues()
        assert np.abs(evs - complex(-a, c)).min() < 1e-8 * max(1.0, a + c)
        assert blk.r < -lam1


def test_fe_block_integer_boundary_bumps_chain_length():
    # the raw chain-length formula gives exactly 4 here, which would park the
    # block's own dominant eigenvalue on the dominance threshold
    blk = fe_block_for(-2.0 + 1j, lambda1=1.0)
    assert blk.b >= 5
    assert blk.r < -1.0


def test_fe_block_rejects_tying_real_part():
    with pytest.raises(DecViolationError):
        fe_block_for(-1.0 + 2j, lambda1=1.0)


def test_keeps_dominant():
    assert FEBlock(1, 1.0, 0.0).keeps_dominant(1.0)
    assert not FEBlock(1, 0.5, 0.0).keeps_dominant(1.0)
    blk = FEBlock(3, 2.0, 0.5)  # r = -2 (1 - 0.5^(1/3)) = -0.41
    assert blk.keeps_dominant(0.3)
    assert not blk.keeps_dominant(0.5)


# Order-9 random Markovian pair whose 3-state block has z ~ 1e-5: a dense
# eigvals re-check of that block disagreed with the exact closed form by a
# relative 2e-10 and rejected the conversion.
ALPHA_NEAR_ZERO_FEEDBACK = np.array([
    0.09199555252554747, 0.2076657591751303, 0.05358683124618742, 0.07041655503592611,
    0.11723114729594583, 0.15036135543614446, 0.0956729961098573, 0.07086632015807579,
    0.1422034830171853,
])
A_NEAR_ZERO_FEEDBACK = np.array([
    [-2.0888276434892314, 0.0, 0.5042652920160843, 0.4330514913239062, 0.0,
     0.2690320383328024, 0.15955028561154438, 0.0, 0.2704317318387981],
    [0.0, -2.039918731465972, 0.0, 0.5075497628956768, 0.0, 0.0, 0.0, 0.0,
     0.7040278499199063],
    [0.7162143267863548, 0.9136553993129848, -4.442011321394718, 0.6123594124758173,
     0.9887745304926838, 0.0, 0.5357861673580667, 0.0045534006333437516, 0.0],
    [0.015177681364596851, 0.0, 0.0, -2.359920285778607, 0.043398344342783335,
     0.5248360048601302, 0.9263171915359283, 0.09695470196162514, 0.0],
    [0.8640602162861342, 0.0, 0.12710833668360555, 0.2335289702816712, -2.0861311907506064,
     0.0, 0.0, 0.0, 0.6538389490365787],
    [0.0, 0.0, 0.0, 0.024398997659395016, 0.0, -1.2721888691071628, 0.5103136437290252,
     0.10396692007240405, 0.26365285838599684],
    [0.0, 0.2524615772441732, 0.0, 0.27238211676471336, 0.0, 0.0, -0.7702840236827482,
     0.0, 0.0],
    [0.0, 0.4464461427567301, 0.0, 0.534909865876858, 0.0, 0.0, 0.11217912631450366,
     -1.661349812985379, 0.0],
    [0.8919734454002183, 0.0, 0.44985985478934165, 0.0, 0.0, 0.8124133820370281, 0.0,
     0.9972372455586508, -3.279226334513753],
])


def test_convert_block_with_near_zero_feedback():
    rep = MERep(ALPHA_NEAR_ZERO_FEEDBACK, A_NEAR_ZERO_FEEDBACK)
    ph, _ = convert(rep)
    assert any(0 < blk.z < 1e-4 for blk in ph.blocks)
    verdict = check_equivalence(rep, ph, grid=np.linspace(0.05, 20.0, 60), rel_tol=1e-9)
    assert verdict.ok, verdict


@settings(max_examples=220, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(0.01, 10.0, allow_nan=False),
    st.one_of(st.just(0.0), st.floats(1e-6, 0.99, allow_nan=False)),
)
def test_fe_block_dominant_eigenvalue_closed_form(b, sigma, z):
    # below z ~ 1e-6 the matrix is numerically defective and the root
    # splitting sits under what any eigensolver can resolve
    blk = FEBlock(b, sigma, z)
    eigs = np.linalg.eigvals(blk.matrix())
    assert abs(blk.r - eigs.real.max()) <= 1e-10 * max(1.0, sigma)


def test_build_generator_worked_example(worked_residual):
    spec = analyze_spectrum(worked_residual)
    mono = build_generator(spec)
    assert mono.order == 8
    assert mono.n1 == 2
    assert mono.matrix == pytest.approx(G8, abs=1e-12)


def test_build_generator_single_exponential():
    rep = MERep(np.array([1.0]), np.array([[-4.0]]))
    mono = build_generator(analyze_spectrum(rep))
    assert mono.matrix == pytest.approx(np.array([[-4.0]]))


def test_build_generator_repeated_real_eigenvalue():
    rep = rep_from_terms([(-1.0 + 0j, [0.4, 0.6])])
    mono = build_generator(analyze_spectrum(rep))
    assert mono.matrix == pytest.approx(np.array([[-1.0, 1.0], [0.0, -1.0]]))


def test_chain_generator_matches_the_per_block_build():
    # one block's matrix at a time, with the same floating-point operations:
    # a 1-state block with feedback gets -sigma + z sigma on its diagonal
    blocks = (FEBlock(1, 2.0, 0.0), FEBlock(1, 3.7, 0.3), FEBlock(4, 5.1, 0.13),
              FEBlock(3, 1.3, 0.0), FEBlock(1, 0.9, 0.0), FEBlock(2, 0.7, 0.9))
    for chain in (blocks, blocks[:1], blocks[1:2], blocks[2:3], blocks[::-1]):
        u = sum(blk.b for blk in chain)
        ref = np.zeros((u, u))
        at = 0
        for blk in chain:
            m = np.diag(np.full(blk.b, -blk.sigma)) + np.diag(np.full(blk.b - 1, blk.sigma), 1)
            if blk.z > 0:
                m[blk.b - 1, 0] += blk.z * blk.sigma
            ref[at : at + blk.b, at : at + blk.b] = m
            at += blk.b
            if at < u:
                ref[at - 1, at] = blk.exit_rate
        assert np.array_equal(chain_generator(chain), ref)
    assert np.array_equal(blocks[1].matrix(), np.array([[-3.7 + 0.3 * 3.7]]))


def test_generator_is_markovian_with_contained_spectrum():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rep = damped_oscillation_rep(rng)
        spec = analyze_spectrum(rep)
        mono = build_generator(spec)
        G = mono.matrix
        diag = np.diag(G)
        off = G - np.diag(diag)
        assert diag.max() < 0
        assert off.min() >= 0
        rowsums = G.sum(axis=1)
        assert rowsums.max() <= 1e-12
        # exactly the last state exits
        assert (rowsums[:-1] == pytest.approx(0.0, abs=1e-12)) and rowsums[-1] < 0
        evs = np.linalg.eigvals(G)
        for t in spec.terms:
            assert np.abs(evs - t.eigenvalue).min() < 1e-7 * max(1.0, abs(t.eigenvalue))
        # non-dominant blocks decay strictly faster than the dominant rate
        for blk in mono.blocks[mono.n1:]:
            assert blk.r < -mono.lambda1
        assert np.max(evs.real) == pytest.approx(-mono.lambda1, abs=1e-9)


def test_solve_gamma_worked_example(worked_residual):
    spec = analyze_spectrum(worked_residual)
    mono = solve_gamma(spec, build_generator(spec))
    assert mono.gamma == pytest.approx(GAMMA8, abs=1e-9)
    assert mono.gamma.sum() == pytest.approx(1.0, abs=1e-10)


def test_transformation_matrix_reproduces_gamma(worked_residual):
    spec = analyze_spectrum(worked_residual)
    mono = build_generator(spec)
    W = solve_transformation_matrix(spec, mono)
    assert np.abs(W.sum(axis=1) - 1.0).max() < 1e-9
    gamma = minimal_representation(spec).alpha @ W
    assert np.real(gamma) == pytest.approx(GAMMA8, abs=1e-9)
    assert np.abs(np.imag(gamma)).max() < 1e-10


def test_solve_gamma_identity_when_already_monocyclic(worked_residual):
    spec = analyze_spectrum(worked_residual)
    mono = build_generator(spec)
    # the body's own pair carries its vector over unchanged
    filled = solve_gamma(analyze_spectrum(MERep(GAMMA8, G8)), mono)
    assert filled.gamma == pytest.approx(GAMMA8, abs=1e-9)


def test_solve_gamma_random_real_spectra():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rates = np.sort(rng.uniform(0.5, 6.0, size=3))
        while np.diff(rates).min() < 0.15:
            rates = np.sort(rng.uniform(0.5, 6.0, size=3))
        weights = rng.dirichlet(np.ones(3))
        terms = [(-r, [w * r]) for r, w in zip(rates, weights)]
        rep = rep_from_terms(terms)
        spec = analyze_spectrum(rep)
        mono = solve_gamma(spec, build_generator(spec))
        xs = np.linspace(0.05, 8.0, 40)
        assert pdf_eval_many(MERep(mono.gamma, mono.matrix), xs) == pytest.approx(
            pdf_eval_many(rep, xs), rel=1e-8, abs=1e-12
        )


def test_pdf_equivalence_through_generator():
    rng = np.random.default_rng(41)
    for _ in range(6):
        rep = damped_oscillation_rep(rng)
        spec = analyze_spectrum(rep)
        mono = solve_gamma(spec, build_generator(spec))
        xs = np.linspace(0.02, 15.0, 100)
        assert pdf_eval_many(MERep(mono.gamma, mono.matrix), xs) == pytest.approx(
            pdf_eval_many(rep, xs), rel=1e-7, abs=1e-12
        )


def _kron_lstsq_w(rep, mono):
    """Reference ``W``: ``A W = W G`` and ``W 1 = 1`` stacked into one dense
    ``(n u + n) x n u`` system over the entries of ``W``, solved by least
    squares."""
    n, u = rep.order, mono.order
    G = mono.matrix
    dtype = complex if rep.is_complex() else float
    eqs = np.kron(np.eye(u), rep.A) - np.kron(G.T, np.eye(n))
    rowsum = np.kron(np.ones((1, u)), np.eye(n))
    stacked = np.vstack([eqs, rowsum]).astype(dtype)
    rhs = np.concatenate([np.zeros(n * u), np.ones(n)]).astype(dtype)
    sol = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    return sol.reshape((u, n)).T


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_transformation_matrix_matches_least_squares_reference(worked_residual):
    rng = np.random.default_rng(41)
    reps = [worked_residual, *(damped_oscillation_rep(rng) for _ in range(4)),
            rep_from_terms([(-1.0 + 0j, [0.4, 0.6])]),
            # a 63-state block, then a fast eigenvalue or a fast pair
            rep_from_terms([(-1, [1]), (-1.1 + 2j, [0.1]), (-100, [0.5])]),
            rep_from_terms([(-1, [1]), (-1.1 + 2j, [0.1]), (-5 + 40j, [0.3])]),
            rep_from_terms([(-1, [1]), (-1.1 + 14j, [0.1])])]
    orders = []
    for rep in reps:
        spec = analyze_spectrum(rep)
        mono = build_generator(spec)
        orders.append(mono.order)
        W = solve_transformation_matrix(spec, mono)
        minimal = minimal_representation(spec)
        ref = _kron_lstsq_w(minimal, mono)
        assert _rel(W, ref) <= 1e-9, mono.order
        assert _rel(minimal.alpha @ W, minimal.alpha @ ref) <= 1e-9, mono.order
    assert orders[0] == 8 and orders[-1] == 441


def test_transformation_matrix_rejects_body_of_another_spectrum(worked_residual):
    other = rep_from_terms([(-1.0 + 0j, [0.5]), (-2.0 + 0j, [0.8]), (-4.0 + 1j, [0.3])])
    mono = build_generator(analyze_spectrum(other))
    with pytest.raises(NumericError, match="does not contain") as info:
        solve_transformation_matrix(analyze_spectrum(worked_residual), mono)
    assert info.value.detail["residual"] > 1e-8


def _dense_copy(rep, rng):
    """The same distribution on a dense real matrix: each conjugate pair on
    the diagonal becomes a real 2 x 2 block, then a random similarity ``M``
    with ``M 1 = 1`` mixes every state into every other."""
    n = rep.order
    S = np.eye(n, dtype=complex)
    d = np.diag(rep.A)
    for i in np.flatnonzero(d.imag > 0):
        assert d[i + 1] == d[i].conjugate()
        S[i:i + 2, i:i + 2] = [[1 - 1j, 1j], [1 + 1j, -1j]]
    B = rng.standard_normal((n, n))
    M = S @ (np.eye(n) + 0.5 * (B - B.mean(axis=1, keepdims=True)))
    alpha, A = rep.alpha @ M, np.linalg.solve(M, rep.A @ M)
    assert np.abs(A.imag).max() < 1e-12 and np.abs(alpha.imag).max() < 1e-12
    assert np.abs(np.tril(A.real, -1)).max() > 0.1
    return MERep(alpha.real, A.real)


@pytest.mark.parametrize("terms", [
    # a fast eigenvalue after a 63-state block: the dense sweep grew its
    # rounding by |1 - 100/21.1|^62, about 1e35
    [(-1, [1]), (-1.1 + 2j, [0.1]), (-100, [0.5])],
    [(-1, [1]), (-1.1 + 14j, [0.1]), (-3000, [0.5])],
    [(-1.0, [0.4, 0.6]), (-2.5, [0.3])],
])
def test_transformation_matrix_of_a_dense_matrix(terms):
    rep = rep_from_terms(terms)
    spec = analyze_spectrum(rep)
    mono = build_generator(spec)
    gamma = solve_gamma(spec, mono).gamma
    dense = _dense_copy(rep, np.random.default_rng(5))
    assert _rel(solve_gamma(analyze_spectrum(dense), mono).gamma, gamma) <= 1e-9


def test_transformation_matrix_regroups_a_split_eigenvalue():
    # a triangular matrix whose repeated eigenvalue is split by another
    # state: the modal form reorders it so the cluster is contiguous
    rep = rep_from_terms([(-1.0, [0.4, 0.6]), (-2.5, [0.3])])
    perm = [0, 2, 1]
    shuffled = MERep(rep.alpha[perm], rep.A[np.ix_(perm, perm)])
    assert not np.any(np.tril(shuffled.A, -1))
    spec = analyze_spectrum(rep)
    mono = build_generator(spec)
    gamma = solve_gamma(spec, mono).gamma
    assert _rel(solve_gamma(analyze_spectrum(shuffled), mono).gamma, gamma) <= 1e-12


def _sequential_sweep(spec, mono):
    """``W`` by the column-at-a-time backward sweep in extended precision
    (``clongdouble``), each term's coordinates zero before its first block."""
    J = minimal_representation(spec).A.astype(np.clongdouble)
    n, u, blocks = spec.order, mono.order, mono.blocks
    evs = np.concatenate([blk.eigenvalues() for blk in blocks])
    block_of = np.repeat(np.arange(len(blocks)), [blk.b for blk in blocks])
    owner = np.repeat([block_of[np.abs(evs - t.eigenvalue).argmin()] for t in spec.terms],
                      [t.multiplicity for t in spec.terms])
    cols = np.zeros((u, n), dtype=np.clongdouble)
    cols[-1] = -(J @ np.ones(n, dtype=np.clongdouble)) / np.longdouble(blocks[-1].exit_rate)
    q = u - 1
    for k in range(len(blocks) - 1, -1, -1):
        sigma, z = np.longdouble(blocks[k].sigma), np.longdouble(blocks[k].z)
        p = q - blocks[k].b + 1
        for j in range(q, p, -1):
            cols[j - 1] = (J @ cols[j]) / sigma + cols[j]
        if k:
            cols[p - 1] = (J @ cols[p] + sigma * (cols[p] - z * cols[q])) / np.longdouble(
                blocks[k - 1].exit_rate)
            cols[p - 1, owner >= k] = 0
        q = p - 1
    return cols.T


@pytest.mark.parametrize("terms, b", [
    ([(-1, [1]), (-1.1 + 2j, [0.1]), (-100, [0.5])], 63),
    ([(-1, [1]), (-1.1 + 2j, [0.1]), (-5 + 40j, [0.3])], 63),
    ([(-1, [1]), (-1.1 + 6j, [0.1]), (-30, [0.2])], 189),
    ([(-1.0, [0.4, 0.6]), (-1.1 + 6j, [0.1, 0.05])], 189),
    ([(-1, [1]), (-1.1 + 8j, [0.1]), (-1e5, [0.5])], 252),
    ([(-1, [1]), (-1.1 + 14j, [0.1]), (-7 + 3j, [0.2])], 440),
])
def test_doubled_sweep_matches_an_extended_precision_sweep(terms, b):
    spec = analyze_spectrum(rep_from_terms(terms))
    mono = build_generator(spec)
    assert max(blk.b for blk in mono.blocks) == b
    W = solve_transformation_matrix(spec, mono)
    ref = _sequential_sweep(spec, mono)
    assert np.linalg.norm((W - ref).astype(complex)) <= 1e-12 * np.linalg.norm(ref.astype(complex))


def test_fast_eigenvalue_stays_out_of_a_long_block():
    # a 252-state block of rate 321.9 before the block of -1e5: a power of
    # that block's K holding the fast eigenvalue's part would reach
    # |1 - 1e5/321.9|^128, past the largest float
    rep = rep_from_terms([(-1, [1]), (-1.1 + 8j, [0.1]), (-1e5, [0.5])])
    ph, _ = convert(rep)
    assert ph.order == 254
    assert [blk.b for blk in ph.blocks] == [1, 252, 1]


def test_non_finite_transformation_fails_closed(worked_residual, monkeypatch):
    # a NaN residual or vector sum compares False with any bound: both
    # checks must raise on it, not pass it on
    spec = analyze_spectrum(worked_residual)
    mono = build_generator(spec)
    jordan_pair = monocyclic._jordan_pair

    def with_nan(spec):
        alpha, J = jordan_pair(spec)
        J[0, 0] = np.nan
        return alpha, J

    with monkeypatch.context() as patch:
        patch.setattr(monocyclic, "_jordan_pair", with_nan)
        with pytest.raises(NumericError, match="no consistent solution") as info:
            solve_transformation_matrix(spec, mono)
        assert np.isnan(info.value.detail["residual"])
    monkeypatch.setattr(monocyclic, "_transformation_matrix",
                        lambda spec, J, mono: np.full((spec.order, mono.order), np.nan))
    with pytest.raises(NumericError, match="solve_gamma"):
        solve_gamma(spec, mono)
