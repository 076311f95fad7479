#!/usr/bin/env python3
"""Run the order-7 regression example end to end and verify the output.

Converts the bundled oscillating density in both modes (computed bounds and
the published rounded constants), prints every intermediate quantity, and
compares the final Markovian representation against the closed form.  In
computed mode the conversion's search finds the tail without pricing the
paper's bound, so the script prices it itself (``find_tau``,
``compute_bounds``, in units of the input's mean, as ``convert`` does where
its search fails).  Exits 1 if an output is not Markovian, misses the
input's density or moments at relative 1e-5, applies a larger tail than the
certified one, or the published mode does not give order 403,309.
"""

import argparse
import sys
import time

import numpy as np

from me2ph import (
    MERep,
    PaperBounds,
    analyze_spectrum,
    build_generator,
    check_equivalence,
    check_markovian,
    choose_mu,
    compute_bounds,
    convert,
    find_tau,
    phrep_pdf,
    solve_gamma,
    zero_multiplicity,
)

SCALE = 102 / 139

ALPHA = SCALE * np.array([1, 1, -1 / 3, 2 / 3, -5 / 2, 12 / 17, 14 / 17])
A = np.array(
    [
        [-1, 1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0],
        [0, 0, -1, 4, 0, 0, 0],
        [0, 0, 1, -1, 0, 0, 0],
        [0, 0, 0, 0, -4, 0, 0],
        [0, 0, 0, 0, 0, -5, 3],
        [0, 0, 0, 0, 0, -3, -5],
    ],
    dtype=float,
)
PUBLISHED_ORDER = 403_309


def closed_form(x):
    return SCALE * (
        x * np.exp(-x) + np.exp(-x) + np.exp(-3 * x) - 10 * np.exp(-4 * x)
        + np.exp(-5 * x) * (8 * np.cos(3 * x) + 4 * np.sin(3 * x))
    )


def certified_n(rep: MERep) -> int:
    """The order of the tail the paper's bound certifies for ``rep``."""
    s = rep.mean_scale
    spec = analyze_spectrum(rep).scaled(s)
    l = zero_multiplicity(spec)
    if l:
        spec = choose_mu(spec, l)[1]
    mono = solve_gamma(spec, build_generator(spec))
    return compute_bounds(mono, *find_tau(mono, spec), spec).n


def run(mode: str) -> list[str]:
    """Convert in one mode, print the report, and return what failed."""
    rep = MERep(ALPHA, A)
    bounds = PaperBounds() if mode == "published" else None
    started = time.perf_counter()
    ph, report = convert(rep, paper_bounds=bounds)
    elapsed = time.perf_counter() - started

    print(f"--- {mode} bounds ---")
    for line in report.lines():
        print(line)
    print(f"conversion time: {elapsed:.2f}s")
    markovian = check_markovian(ph).ok
    print(f"markovian: {markovian}")

    grid = np.linspace(0.2, 10.0, 50)
    verdict = check_equivalence(rep, ph, grid=grid, rel_tol=1e-5)
    print(f"density match on 50 points: max rel error {verdict.max_rel_error:.3e}")
    print(f"moment match (first 5): max rel error {verdict.moments_rel_error:.3e}")
    ref = float(closed_form(np.array([1.0]))[0])
    print(f"f(1): closed form {ref:.12f} vs structured {phrep_pdf(ph, 1.0):.12f}")
    certified = report.bounds.n if report.bounds is not None else certified_n(rep)
    print(f"certified tail: {certified} states")
    print()

    failures = []
    if not markovian:
        failures.append(f"{mode}: output is not Markovian")
    if not verdict.ok:
        failures.append(f"{mode}: output misses the input at relative 1e-5")
    if ph.tail_n > certified:
        failures.append(f"{mode}: tail of {ph.tail_n} states, above the certified {certified}")
    if mode == "published" and ph.order != PUBLISHED_ORDER:
        failures.append(f"published: order {ph.order}, expected {PUBLISHED_ORDER}")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode",
        choices=["computed", "published", "both"],
        default="both",
    )
    args = parser.parse_args()
    modes = ["computed", "published"] if args.mode == "both" else [args.mode]
    failures = [f for mode in modes for f in run(mode)]
    for failure in failures:
        print(f"FAIL {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
