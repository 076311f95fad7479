import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from me2ph import InvalidRepresentationError, MERep, NumericError, moments, pdf_eval, pdf_eval_many
from me2ph.core import mat_norm_inf, vec_norm1
from conftest import SCALE, f_closed


def expm_oracle(H, terms=300):
    """Extended-precision scaled Taylor series, independent of the library path."""
    H = np.asarray(H)
    work = np.asarray(H, dtype=np.clongdouble if np.iscomplexobj(H) else np.longdouble)
    norm = float(np.abs(work).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    X = work / 2**squarings
    n = H.shape[0]
    E = np.eye(n, dtype=work.dtype)
    term = np.eye(n, dtype=work.dtype)
    for k in range(1, terms + 1):
        term = term @ X / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E.astype(complex if np.iscomplexobj(H) else float)


def test_pdf_exponential_at_zero():
    rep = MERep(np.array([1.0]), np.array([[-1.0]]))
    assert pdf_eval(rep, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_pdf_worked_example_closed_form(worked_rep):
    expected = SCALE * (
        2 * np.exp(-1) + np.exp(-3) - 10 * np.exp(-4)
        + np.exp(-5) * (8 * np.cos(3) + 4 * np.sin(3))
    )
    assert pdf_eval(worked_rep, 1.0) == pytest.approx(expected, rel=1e-12)
    xs = np.linspace(0.0, 8.0, 40)
    assert pdf_eval_many(worked_rep, xs) == pytest.approx(f_closed(xs), abs=1e-12)


def test_pdf_matches_series_oracle():
    rng = np.random.default_rng(42)
    M = rng.normal(size=(3, 3))
    A = M - np.eye(3) * (np.abs(M).sum(axis=1).max() + 0.5)
    alpha = rng.dirichlet(np.ones(3))
    rep = MERep(alpha, A)
    x = 0.7
    expected = float(-(alpha @ A @ expm_oracle(A * x, terms=200)).sum())
    assert pdf_eval(rep, x) == pytest.approx(expected, rel=1e-10)


def test_pdf_eval_overflow_is_numeric_error():
    rep = MERep(np.array([1.0]), np.array([[1000.0]]))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="overflow"):
        pdf_eval(rep, 1.0)


def test_moments_exponential_and_erlang():
    rep = MERep(np.array([1.0]), np.array([[-1.0]]))
    assert moments(rep, 2) == pytest.approx([1.0, 2.0])
    erl = MERep(np.array([1.0, 0.0]), np.array([[-2.0, 2.0], [0.0, -2.0]]))
    assert moments(erl, 1)[0] == pytest.approx(1.0)


def test_moments_match_quadrature(worked_minimal):
    from scipy.integrate import quad

    got = moments(worked_minimal, 3)
    for k in range(1, 4):
        ref, err = quad(lambda x, k=k: x**k * f_closed(x), 0, np.inf, limit=200)
        assert got[k - 1] == pytest.approx(ref, rel=1e-8)


def test_merep_invariants():
    with pytest.raises(InvalidRepresentationError, match="sum to 1"):
        MERep(np.array([0.5, 0.2]), -np.eye(2))
    with pytest.raises(InvalidRepresentationError, match="length"):
        MERep(np.array([1.0]), -np.eye(2))
    with pytest.raises(InvalidRepresentationError, match="singular"):
        MERep(np.array([0.5, 0.5]), np.array([[1.0, 1.0], [1.0, 1.0]]))


finite_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@st.composite
def small_matrix(draw, nmax=5):
    n = draw(st.integers(1, nmax))
    vals = draw(
        st.lists(finite_floats, min_size=n * n, max_size=n * n)
    )
    return np.array(vals).reshape(n, n)


@settings(max_examples=200, deadline=None)
@given(small_matrix(), small_matrix())
def test_matrix_norm_submultiplicative(A, B):
    if A.shape != B.shape:
        return
    assert mat_norm_inf(A @ B) <= mat_norm_inf(A) * mat_norm_inf(B) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vector_matrix_vector_bound(data):
    n = data.draw(st.integers(1, 5))
    v = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
    A = np.array(data.draw(st.lists(finite_floats, min_size=n * n, max_size=n * n))).reshape(n, n)
    bound = vec_norm1(v) * mat_norm_inf(A) * np.abs(w).max()
    assert abs(v @ A @ w) <= bound + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_vector_norm_equivalence(vals):
    v = np.array(vals)
    largest = np.abs(v).max()
    assert largest <= vec_norm1(v) + 1e-12
    assert vec_norm1(v) <= len(vals) * largest + 1e-12
