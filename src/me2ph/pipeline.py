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
tail is ``smallest_tail``'s: the smallest whose transformed vector is
nonnegative, found under a fixed budget of jumps with no certificate, or,
where that search finds nothing, under the paper's bound, which is then
priced.  With ``PaperBounds`` the certified tail is applied by
``append_tail``.  The checks read the expansion in the input's units; the
construction runs in units of its mean, a power of two
(``MERep.mean_scale``), and its output and report are rescaled once, after
it, so ``(alpha, 2^j A)`` converts to the exact rescaling.
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
from .tail import BoundsReport, PHRep, TailChoice, append_tail, compute_bounds, smallest_tail
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


def _in_input_units(ph: PHRep, s: float) -> PHRep:
    """``ph``, built in units of the mean ``s``, in the input's units: every
    rate (block ``sigma``, tail ``lambda``, prefix ``mu``) over ``s``."""
    blocks = tuple(replace(blk, sigma=blk.sigma / s) for blk in ph.blocks)
    prefix = ph.prefix and replace(ph.prefix, mu=ph.prefix.mu / s)
    return replace(ph, blocks=blocks, tail_lambda=ph.tail_lambda / s, prefix=prefix)


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
    tail applied if one is needed, would exceed ``max_order``.  A
    nonnegative body vector proves the density positive, so
    ``check_positive_density`` runs at most once: when the vector has a
    negative entry, before the tail is searched for, or when the
    construction fails.  When it rejects the input, ``PositiveDensityError``
    is raised, in place of the construction's error.  In computed mode
    ``smallest_tail`` chooses the tail, and prices the certificate only
    where its search without one finds nothing; it sweeps no tail above the
    room ``max_order`` leaves.  With ``paper_bounds`` ``append_tail``
    applies the certified tail.
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
    try:
        working_spec = spec.scaled(s)
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
            report.mu = mu / s

        mono = solve_gamma(working_spec, build_generator(working_spec, tol), tol)
        gamma_min = float(mono.gamma.min())
        if gamma_min >= 0:
            ph = PHRep(mono.gamma, mono.blocks, 0.0, 0, np.zeros(0), tol=tol)
    except Me2PhError:
        # a density that is not positive fails the construction somewhere;
        # the check names that failure
        _require_positive(spec, tol)
        raise
    report.gamma_min = gamma_min
    report.monocyclic_order = mono.order
    # no tail above the room the limit leaves is swept
    room = max_order - l - mono.order
    bounds = tail = None
    if gamma_min < 0:
        # a sign-changing density shows here first: reject it before a tail
        # is searched for
        _require_positive(spec, tol)
        if paper_bounds is None:
            bounds, tail, ph = smallest_tail(mono, working_spec, room, tol)
        else:
            bounds = compute_bounds(
                mono, paper_bounds.tau / s, working_spec, tol=tol,
                gamma_norm=paper_bounds.gamma_norm,
                eps1=paper_bounds.eps1,
                eps2=paper_bounds.eps2 * s,
                round_rate_to=paper_bounds.round_rate_to * s,
            )
            tail = TailChoice.certified(bounds)
            ph = append_tail(mono, tail, tol) if tail.n <= room else None
    n = tail.n if tail is not None else 0
    if n > room:
        raise NumericError(
            f"convert: order {l + mono.order + n} exceeds the limit {max_order}",
            detail={"n": n, "max_order": max_order},
        )
    if l > 0:
        ph = recompose(ph, l, mu)

    # back in the input's units, exactly: a power-of-two unit leaves the
    # ladder's G tau and the tail sweep's steps G / rate the same bit for bit
    ph = _in_input_units(ph, s)
    report.blocks = [f"({b.b},{b.sigma:g},{b.z:g})" for b in ph.blocks]
    if bounds is not None:
        report.bounds = replace(bounds, tau=bounds.tau * s, g=bounds.g / s, eps2=bounds.eps2 / s,
                                lambda_prime=bounds.lambda_prime / s,
                                lambda_dprime=bounds.lambda_dprime / s, rate=bounds.rate / s)
    if tail is not None:
        report.tail = replace(tail, tau=tail.tau * s, rate=tail.rate / s)
    report.final_order = ph.order
    return ph, report
