"""End-to-end conversion of a matrix-exponential pair into Markovian form.

Order of operations: read the density's expansion, check the dominance
condition on it, split off an Erlang factor if the density vanishes at 0,
build the monocyclic generator and carry the remaining expansion over to its
initial vector (no pair is built after the input), append an Erlang tail if
the vector has negative entries, and reattach the Erlang factor.  A
nonnegative vector proves the density positive, so the positivity check
(``check_positive_density``) runs only where the vector does not decide:
when it has a negative entry, before the tail is searched for, and when the
construction fails, to name a density that is not positive as such.  The
tail is the smallest whose transformed vector is nonnegative:
``smallest_tail`` searches for it under a fixed budget of jumps, with no
certificate.  Only when that search finds nothing is the paper's bound
priced (``find_tau``, ``compute_bounds``); the search then runs again
below the certified tail, which it applies when nothing smaller passes.
With ``PaperBounds`` the certified tail is applied by ``append_tail``.
The checks read the
expansion in the input's units; the construction runs in units of
its mean, a power of two (``MERep.mean_scale``), so ``(alpha, 2^j A)``
converts to the exact rescaling.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .core import MERep
from .deconv import choose_mu, deconvolve, recompose, zero_multiplicity
from .errors import (DecViolationError, InvalidRepresentationError, Me2PhError, NumericError,
                     PositiveDensityError)
from .monocyclic import build_generator, solve_gamma
from .spectral import analyze_spectrum, check_dec, fmt_complex
from .tail import (_SEARCH_JUMPS, BoundsReport, PHRep, TailChoice, append_tail, compute_bounds, find_tau,
                   smallest_tail)
from .validate import check_positive_density

__all__ = ["PaperBounds", "ConversionReport", "convert"]


@dataclass(frozen=True)
class PaperBounds:
    """Published rounded constants for regression runs of the bundled example.

    Substituting these for the computed quantities reproduces the published
    tail figures exactly (rate 806600, order 403309).  Meaningless for other
    inputs.  They are in the example's own units of time.
    """

    mu: float = 10.0
    tau: float = 0.5
    gamma_norm: float = 1.5
    eps1: float = 0.05
    eps2: float = 0.069
    round_rate_to: float = 100.0


@dataclass
class ConversionReport:
    """Step-by-step record of one conversion.

    ``bounds`` is the certificate, the tail the paper's bound guarantees:
    ``None`` where none was computed, as when the search without it found
    a tail.  ``tail`` is the one applied, with the jumps the search that
    chose it swept; in computed mode it is the smallest the search found,
    at most the certified one when there is one.
    """

    input_order: int = 0
    minimal_order: int = 0
    eigenvalues: list = field(default_factory=list)
    l: int = 0
    mu: float | None = None
    blocks: list = field(default_factory=list)
    monocyclic_order: int = 0
    gamma_min: float = 0.0
    bounds: BoundsReport | None = None
    tail: TailChoice | None = None
    final_order: int = 0

    def lines(self) -> list[str]:
        out = [
            f"input order: {self.input_order}",
            f"minimal order: {self.minimal_order}",
            "eigenvalues: " + ", ".join(self.eigenvalues),
            f"erlang factor: l={self.l}" + (f" mu={self.mu!r}" if self.l else ""),
            "blocks: " + ", ".join(self.blocks),
            f"monocyclic order: {self.monocyclic_order}",
            f"gamma min entry: {self.gamma_min!r}",
        ]
        if self.bounds is not None:
            b = self.bounds
            out += [
                f"tau: {b.tau!r}",
                f"g: {b.g!r}",
                f"gamma norm: {b.gamma_norm!r}",
                f"eps1: {b.eps1!r}",
                f"eps2: {b.eps2!r}",
                f"lambda_prime: {b.lambda_prime!r}",
                f"lambda_dprime: {b.lambda_dprime!r}",
                f"lambda: {b.rate!r}",
                f"n: {b.n}",
            ]
        if self.tail is not None:
            t = self.tail
            out += [
                f"applied tau: {t.tau!r}",
                f"applied lambda: {t.rate!r}",
                f"applied n: {t.n}",
                f"jumps swept: {t.jumps}",
            ]
        else:
            out.append("tail: not needed")
        out.append(f"final order: {self.final_order}")
        return out


def _fmt_eig(term) -> str:
    s = fmt_complex(term.eigenvalue)
    return f"{s} (x{term.multiplicity})" if term.multiplicity > 1 else s


def _require_positive(spec, tol: ToleranceConfig) -> None:
    """Raise ``PositiveDensityError`` when ``check_positive_density`` rejects
    the expansion, naming the failed part."""
    pd = check_positive_density(spec, tol)
    if not pd.ok:
        raise PositiveDensityError(f"{pd.failed_part}: {pd.detail}")


def _certificate(mono, spec, s: float, paper_bounds, tol: ToleranceConfig) -> BoundsReport:
    """The paper's certificate for the body ``mono``, built in units of the
    mean ``s`` from the expansion ``spec`` it realizes, in the input's units."""
    if paper_bounds is not None:
        bounds = compute_bounds(
            mono, paper_bounds.tau / s, spec, tol=tol,
            gamma_norm=paper_bounds.gamma_norm,
            eps1=paper_bounds.eps1,
            eps2=paper_bounds.eps2 * s,
            round_rate_to=paper_bounds.round_rate_to * s,
        )
    else:
        bounds = compute_bounds(mono, find_tau(mono, spec, tol), spec, tol=tol)
    return replace(bounds, tau=bounds.tau * s, g=bounds.g / s, eps2=bounds.eps2 / s,
                   lambda_prime=bounds.lambda_prime / s,
                   lambda_dprime=bounds.lambda_dprime / s, rate=bounds.rate / s)


def _apply_tail(mono, body, spec, s: float, paper_bounds, room: int, tol: ToleranceConfig):
    """The certificate (``None`` where none was needed), the tail applied
    (``None`` for a nonnegative vector), the output without its prefix, and
    the tail's order.  ``mono`` is the body in units of the mean ``s``,
    ``body`` the same in the input's units.  A tail above ``room``, the
    certified one or its retry, is not built and comes with ``None``."""
    if mono.gamma.min() >= 0:
        return None, None, PHRep(body.gamma, body.blocks, 0.0, 0, np.zeros(0), tol=tol), 0
    if paper_bounds is None:
        tail, ph = smallest_tail(body, None, room, tol)
        if ph is not None:
            return None, tail, ph, tail.n
    try:
        bounds = _certificate(mono, spec, s, paper_bounds, tol)
    except NumericError as exc:
        if paper_bounds is not None:
            raise
        budget = max(min(_SEARCH_JUMPS, room), 0)
        raise NumericError(f"{exc}; no tail passed a search of {budget} jumps", detail=exc.detail) from exc
    tail, ph = TailChoice.certified(bounds), None
    try:
        if paper_bounds is None:
            tail, ph = smallest_tail(body, bounds, room, tol)
        elif tail.n <= room:
            ph = append_tail(body, tail, tol, room)
            tail = replace(tail, rate=ph.tail_lambda, n=ph.tail_n)
    except NumericError as exc:
        if (exc.detail or {}).get("max_n") != room:
            raise
        return bounds, tail, None, exc.detail["n"]  # the retry append_tail refused
    return bounds, tail, ph, tail.n


def convert(
    rep: MERep,
    tol: ToleranceConfig = DEFAULT_TOL,
    *,
    paper_bounds: PaperBounds | None = None,
    max_order: int = 10_000_000,
) -> tuple[PHRep, ConversionReport]:
    """Run the full construction and return the Markovian representation.

    Raises ``DecViolationError`` when the dominance condition fails, and
    ``NumericError`` when no tail can be certified or the order, with the
    tail applied (retried or not) if one is needed, would exceed
    ``max_order``.  A nonnegative body vector proves the density positive,
    so ``check_positive_density`` runs at most once: when the vector has a
    negative entry, before the tail is searched for, or when the
    construction fails.  When it rejects the input, ``PositiveDensityError``
    is raised, in place of the construction's error.  In computed mode the
    tail comes from ``smallest_tail`` without a certificate, under
    ``_SEARCH_JUMPS`` jumps or the room ``max_order`` leaves if smaller; only
    when that finds nothing are ``find_tau`` and ``compute_bounds`` run, and
    ``smallest_tail`` again under the certificate.  With ``paper_bounds``
    ``append_tail`` applies the certified tail.
    """
    report = ConversionReport(input_order=rep.order)

    spec = analyze_spectrum(rep, tol)
    report.minimal_order = spec.order
    report.eigenvalues = [_fmt_eig(t) for t in spec.terms]

    dec = check_dec(spec, tol)
    if not dec.ok:
        raise DecViolationError(dec.diagnostic)
    # the dominant term has the largest real part: every term is stable iff it is
    if spec.lambda1 <= 0:
        raise InvalidRepresentationError(
            "convert: spectrum has an eigenvalue with nonnegative real part"
        )

    # from here on rates are in units of 1/s and times in units of s
    s = rep.mean_scale
    graded = False  # whether check_positive_density has run on spec
    try:
        working_spec, mu = spec.scaled(s), None
        l = zero_multiplicity(working_spec, tol)
        report.l = l
        if l > 0:
            if paper_bounds is None:
                mu, working_spec = choose_mu(working_spec, l, tol)
            else:
                mu = paper_bounds.mu * s
                working_spec = deconvolve(working_spec, l, mu, tol)
                pd = check_positive_density(working_spec, tol)
                if not pd.ok:
                    raise PositiveDensityError(
                        f"residual density after the Erlang split is not positive ({pd.detail})"
                    )
            mu /= s
            report.mu = mu

        mono = solve_gamma(working_spec, build_generator(working_spec, tol), tol)
        gamma_min = float(mono.gamma.min())
        report.gamma_min = gamma_min

        if gamma_min < 0:
            # a sign-changing density shows here first: reject it before a
            # tail is searched for
            graded = True
            _require_positive(spec, tol)
        # back in the input's units; the tail sweep's steps Q / rate do not change
        body = replace(mono, blocks=tuple(replace(blk, sigma=blk.sigma / s) for blk in mono.blocks),
                       lambda1=mono.lambda1 / s)
        report.blocks = [f"({b.b},{b.sigma:g},{b.z:g})" for b in body.blocks]
        report.monocyclic_order = body.order
        # no tail above the room the limit leaves is swept, a retried one included
        room = max_order - l - body.order
        report.bounds, tail, ph, n = _apply_tail(mono, body, working_spec, s, paper_bounds, room, tol)
    except Me2PhError:
        # a density that is not positive fails the construction somewhere;
        # the check names that failure, if it has not run yet
        if not graded:
            _require_positive(spec, tol)
        raise
    if n > room:
        raise NumericError(
            f"convert: order {l + body.order + n} exceeds the limit {max_order}",
            detail={"n": n, "max_order": max_order},
        )
    report.tail = tail

    if l > 0:
        ph = recompose(ph, l, mu)
    report.final_order = ph.order
    return ph, report
