"""Command line interface.

Exit codes of ``convert``: 0 success, 2 dominant-eigenvalue condition failed,
3 positive-density condition failed, 4 numeric failure (ill conditioning or
order limits), 1 unreadable, malformed or invalid input, or an output that
cannot be written.  Failures print one machine-parseable line
``error: <kind>: <detail>`` on stderr.
"""

import argparse
import json
import sys

import numpy as np

from .core import pdf_eval_many
from .errors import DecViolationError, InvalidRepresentationError, Me2PhError, PositiveDensityError
from .io import read_file, read_me_file, write_ph_file
from .pipeline import PaperBounds, convert
from .spectral import analyze_spectrum, check_dec
from .tail import phrep_pdf
from .validate import check_equivalence, check_markovian, check_positive_density, monte_carlo_check

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEC = 2
EXIT_DENSITY = 3
EXIT_NUMERIC = 4


def _fail(kind: str, detail: str, code: int) -> int:
    sys.stderr.write(f"error: {kind}: {detail}\n")
    return code


def _read(reader, path):
    """``reader(path)``, with every way an input file can be bad raised as
    ``ValueError``: unreadable, unparsable, or breaking a representation
    invariant.  Each command reports a ``ValueError`` as an input error."""
    try:
        return reader(path)
    except (OSError, InvalidRepresentationError) as exc:
        raise ValueError(str(exc)) from exc


def cmd_convert(args) -> int:
    if args.max_order < 1:
        return _fail("input", f"max order {args.max_order} is below 1", EXIT_INPUT)
    try:
        rep, tol = _read(read_me_file, args.input)
    except ValueError as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    try:
        ph, report = convert(
            rep,
            tol,
            paper_bounds=PaperBounds() if args.paper_bounds else None,
            max_order=args.max_order,
        )
    except DecViolationError as exc:
        return _fail("dec-violation", f"dominant eigenvalue condition violated: {exc.diagnostic}", EXIT_DEC)
    except PositiveDensityError as exc:
        return _fail("positive-density", str(exc), EXIT_DENSITY)
    except Me2PhError as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)
    try:
        write_ph_file(ph, args.output)
    except OSError as exc:
        return _fail("output", str(exc), EXIT_INPUT)
    for line in report.lines():
        print(line)
    if report.bounds is not None:
        b = report.bounds
        print("bounds: " + json.dumps({
            "tau": b.tau, "g": b.g, "gamma_norm": b.gamma_norm,
            "eps1": b.eps1, "eps2": b.eps2,
            "lambda_prime": b.lambda_prime, "lambda_dprime": b.lambda_dprime,
            "lambda": b.rate, "n": b.n,
        }))
    if report.tail is not None:
        t = report.tail
        print("tail: " + json.dumps({"tau": t.tau, "lambda": t.rate, "n": t.n, "jumps": t.jumps}))
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.monte_carlo < 0:
        return _fail("input", f"monte carlo sample count {args.monte_carlo} is negative", EXIT_INPUT)
    if args.seed is not None and args.seed < 0:
        return _fail("input", f"seed {args.seed} is negative", EXIT_INPUT)
    if args.tol is not None and not args.tol >= 0:
        return _fail("input", f"tolerance {args.tol} is not a nonnegative number", EXIT_INPUT)
    if args.tol is not None and args.against is None:
        return _fail("input", "--tol needs --against", EXIT_INPUT)
    if args.seed is not None and not args.monte_carlo:
        return _fail("input", "--seed needs --monte-carlo", EXIT_INPUT)
    seed = 0 if args.seed is None else args.seed
    try:
        kind, obj, tol = _read(read_file, args.input)
        other = _read(read_file, args.against)[1] if args.against is not None else None
    except ValueError as exc:
        return _fail("input", str(exc), EXIT_INPUT)

    verdict: dict = {}
    try:
        verdict["markovian"] = bool(check_markovian(obj, tol).ok)
        if kind == "me":
            spec = analyze_spectrum(obj, tol)
            verdict["dec"] = bool(check_dec(spec, tol).ok)
            verdict["positive_density"] = bool(check_positive_density(spec, tol).ok)
        else:
            # structural: every block keeps the leading rate dominant; a
            # Markovian representation with reachable states has positive density
            verdict["dec"] = all(b.keeps_dominant(obj.lambda1) for b in obj.blocks)
            verdict["positive_density"] = bool(verdict["markovian"])
        if other is not None:
            rel_tol = 1e-5 if args.tol is None else args.tol
            eq = check_equivalence(other, obj, rel_tol=rel_tol, tol=tol)
            verdict["equivalence"] = {
                "max_rel_error": eq.max_rel_error,
                "moments_rel_error": eq.moments_rel_error,
                "pass": bool(eq.ok),
            }
        if args.monte_carlo:
            if kind != "ph":
                return _fail("input", "monte carlo check needs a structured file", EXIT_INPUT)
            try:
                ks = monte_carlo_check(obj, samples=args.monte_carlo, seed=seed)
            except MemoryError:
                return _fail("input", f"{args.monte_carlo} monte carlo samples do not fit in memory",
                             EXIT_INPUT)
            verdict["monte_carlo"] = {"ks": ks, "samples": args.monte_carlo, "seed": seed}
    except Me2PhError as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)
    print(json.dumps(verdict))
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or not 0 <= start <= stop < np.inf:
        raise ValueError(f"bad grid {spec!r}")
    try:
        return np.linspace(start, stop, count)
    except MemoryError:
        raise ValueError(f"grid {spec!r}: {count} points do not fit in memory") from None


def cmd_pdf(args) -> int:
    try:
        grid = _parse_grid(args.grid)
        kind, obj, _tol = _read(read_file, args.input)
    except ValueError as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    try:
        vals = pdf_eval_many(obj, grid) if kind == "me" else np.asarray(phrep_pdf(obj, grid))
    except Me2PhError as exc:
        return _fail("numeric", str(exc), EXIT_NUMERIC)
    print("x,f")
    for x, f in zip(grid, vals):
        print(f"{float(x)!r},{float(f)!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="me2ph",
        description="Convert matrix-exponential representations to Markovian phase type.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="run the construction end to end")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--paper-bounds", action="store_true",
                   help="substitute the published rounded constants of the bundled "
                        "regression example for the computed bounds")
    c.add_argument("--max-order", type=int, default=10_000_000,
                   help="abort if the final order would exceed this (at least 1)")
    c.set_defaults(func=cmd_convert)

    v = sub.add_parser("validate", help="check a representation file")
    v.add_argument("input")
    v.add_argument("--against", default=None, help="second file for an equivalence check")
    v.add_argument("--monte-carlo", type=int, default=0, metavar="SAMPLES",
                   help="also simulate absorption times and report the KS statistic")
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(func=cmd_validate)

    g = sub.add_parser("pdf", help="print density values as CSV")
    g.add_argument("input")
    g.add_argument("--grid", required=True, help="start:stop:count")
    g.set_defaults(func=cmd_pdf)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
