#!/usr/bin/env python3
"""Convert a fixed census of inputs and print a digest of the tails chosen.

The census is the benchmark's paper example and its random batch (seed 1),
then ``--damped`` draws of ``genutil.damped_oscillation_rep`` and
``--erlang-damped`` draws of ``genutil.erlang_damped_rep``, all from one
``default_rng(12)``.  Per input the digest takes the output order, the applied
tail's ``n``, and the certificate's ``n`` and ``tau`` (exact, as ``float.hex``;
``None`` where ``convert`` priced no certificate, as when its search found
the tail without one), or the error's class when the conversion fails.  Two
checkouts that print the same digest chose the same tail on every input and
priced the same certificates.  The ``applied`` line hashes only the output
order and the applied tail's ``n`` (or the error's class), so it reads the
same for two checkouts that chose the same tails, whichever certificates
they priced.  The summary also counts the inputs whose applied tail is the
certified one, and prints the most jumps one conversion's search swept.
The ``outputs`` line hashes
the bits of every output value (``output_bits``); two checkouts that print
the same one produced bit-identical outputs.  ``--save PATH`` writes every
output's parts to an ``.npz`` file, and ``--against PATH`` prints the largest
difference of this run's values from those saved, relative to each value and
relative to the 1-norm of its output part, so that a changed ``outputs``
line says by how much.

``--grid`` also evaluates every output of at most ``tail._SPARSE_STATES``
states on a 257-point linspace from 0 to 20 means, pdf and cdf, both by the
powers of one step and by the Poisson path the evaluator's rule prices
lower, and prints the largest pdf
difference (relative to the largest pdf value), the largest cdf difference
(absolute), and how many outputs the evaluator's rule sends each way.

Run from the root of a source checkout:

    python3 scripts/tail_census.py
    python3 scripts/tail_census.py --save before.npz      # on one checkout
    python3 scripts/tail_census.py --against before.npz   # on another
    python3 scripts/tail_census.py --grid
"""

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

from genutil import damped_oscillation_rep, erlang_damped_rep  # noqa: E402
from me2ph import Me2PhError, convert, phrep_moments  # noqa: E402
from me2ph.tail import (  # noqa: E402
    _SPARSE_STATES,
    _cheapest_path,
    _grid_values,
    _poisson_values,
    _progression,
)
from workloads import build_cases  # noqa: E402


def census_inputs(damped: int, erlang_damped: int):
    """``(name, rep)`` of every input, in a fixed order."""
    for workload in ("paper-example", "random-batch"):
        for case in build_cases(workload, 1):
            yield case.name, case.rep
    rng = np.random.default_rng(12)
    for i in range(damped):
        yield f"genutil-damped-{i}", damped_oscillation_rep(rng)
    for i in range(erlang_damped):
        yield f"genutil-erlang-damped-{i}", erlang_damped_rep(rng)[0]


def outcome(rep) -> tuple[tuple, object, object]:
    """``(order, tail n, certified n, certified tau)``, or the error's class,
    with the output and the report (both ``None`` when the conversion
    fails)."""
    try:
        ph, report = convert(rep)
    except Me2PhError as exc:
        return (type(exc).__name__,), None, None
    b = report.bounds
    out = (ph.order, ph.tail_n, b.n if b else None, b.tau.hex() if b else None)
    return out, ph, report


def grid_paths(ph) -> tuple[float, float, str]:
    """pdf and cdf of ``ph`` on 257 points from 0 to 20 means by the powers
    of one step and by the Poisson path the evaluator's rule prices lower:
    the largest pdf difference over the largest pdf value, the largest cdf
    difference, and the path the rule takes on those points."""
    xs = np.linspace(0.0, 20 * phrep_moments(ph, 1)[0], 257)
    grid = _progression(xs)
    pdf, cdf = (_grid_values(ph, *grid, xs.size, cdf) for cdf in (False, True))
    one_chain = _cheapest_path(ph, xs, None) == "one chain"
    pdf_ref = _poisson_values(ph, xs, False, one_chain)
    cdf_ref = np.clip(_poisson_values(ph, xs, True, one_chain), 0.0, 1.0)
    taken = "steps" if _cheapest_path(ph, xs, grid) == "grid" else "Poisson sums"
    return float(np.abs(pdf - pdf_ref).max() / pdf_ref.max()), float(np.abs(cdf - cdf_ref).max()), taken


def certified(report) -> bool:
    """Whether the applied tail has the certificate's ``(tau, n)``."""
    t, b = report.tail, report.bounds
    return t is not None and b is not None and (t.tau, t.n) == (b.tau, b.n)


def output_parts(ph) -> list[np.ndarray]:
    """The blocks' ``b``, ``sigma`` and ``z``, the head vector, the tail's
    rate and weights, and the prefix's ``l`` and ``mu``, as float64 arrays."""
    prefix = (ph.prefix.l, ph.prefix.mu) if ph.prefix is not None else ()
    parts = ([(blk.b, blk.sigma, blk.z) for blk in ph.blocks], ph.head_gamma,
             [ph.tail_lambda], ph.tail_weights, prefix)
    return [np.asarray(part, dtype=float).ravel() for part in parts]


def output_bits(parts: list[np.ndarray]) -> bytes:
    """The float64 bits of ``output_parts``, each part preceded by its length."""
    return b"".join(arr.size.to_bytes(8, "little") + arr.astype("<f8").tobytes()
                    for arr in parts)


def largest_difference(values: dict, saved: dict) -> tuple[list, list[str]]:
    """The largest relative difference ``|a - b| / |b|`` (0 where ``a == b``)
    of a value ``a`` from its saved ``b``, and the largest ``|a - b|`` over
    the 1-norm of the saved output part ``b`` is in, each with the input it
    is at, over the inputs converted in both runs to outputs of the same
    sizes; and the inputs converted in one run only or to outputs of
    different sizes.  The second figure keeps a cancellation-level move in
    a tiny entry from reading as a large relative change."""
    worst = [[0.0, None], [0.0, None]]
    unmatched = []
    for name in sorted(set(values) | set(saved)):
        a_parts, b_parts = values.get(name), saved.get(name)
        if a_parts is None or b_parts is None or [a.shape for a in a_parts] != [b.shape for b in b_parts]:
            unmatched.append(name)
            continue
        for a, b in zip(a_parts, b_parts):
            diff = np.where(a == b, 0.0, np.abs(a - b))
            if not diff.size:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(diff == 0, 0.0, diff / np.abs(b))
                of_norm = diff.max() / np.abs(b).sum() if diff.max() else 0.0
            for slot, value in zip(worst, (rel.max(), of_norm)):
                if value > slot[0]:
                    slot[:] = float(value), name
    return worst, unmatched


def load_parts(path: str) -> dict:
    """``{input: [output part, ...]}`` from a file written by ``--save``."""
    parts = {}
    with np.load(path) as saved:
        for key in saved.files:
            name, i = key.rsplit("#", 1)
            parts.setdefault(name, {})[int(i)] = saved[key]
    return {name: [by_index[i] for i in sorted(by_index)] for name, by_index in parts.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--damped", type=int, default=2000)
    parser.add_argument("--erlang-damped", type=int, default=1000)
    parser.add_argument("--verbose", action="store_true", help="print one line per input")
    parser.add_argument("--save", metavar="PATH", help="write every output's parts to PATH (.npz)")
    parser.add_argument("--against", metavar="PATH",
                        help="print the largest differences from the values saved in PATH")
    parser.add_argument("--grid", action="store_true",
                        help="compare both evaluation paths on a uniform grid of each short output")
    args = parser.parse_args()

    digest, applied, outputs = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    # printed even when no input takes the certified tail
    counts = Counter({"certified tail": 0})
    values, most_jumps = {}, [0, None]
    paths, worst_pdf, worst_cdf = Counter(), [0.0, None], [0.0, None]
    start = time.perf_counter()
    for name, rep in census_inputs(args.damped, args.erlang_damped):
        out, ph, report = outcome(rep)
        parts = output_parts(ph) if ph is not None else []
        if args.grid and ph is not None and ph.order <= _SPARSE_STATES:
            pdf_diff, cdf_diff, taken = grid_paths(ph)
            paths[taken] += 1
            for slot, value in ((worst_pdf, pdf_diff), (worst_cdf, cdf_diff)):
                if value >= slot[0]:
                    slot[:] = value, name
        digest.update(repr((name, out)).encode())
        applied.update(repr((name, out[:2])).encode())
        outputs.update(name.encode() + output_bits(parts))
        if parts:
            values[name] = parts
        counts["inputs"] += 1
        if len(out) == 1:
            counts[f"failed: {out[0]}"] += 1
        elif out[1]:
            counts["with a tail"] += 1
        if report is not None:
            counts["certified tail"] += certified(report)
            if report.tail is not None and report.tail.jumps > most_jumps[0]:
                most_jumps[:] = report.tail.jumps, name
        if args.verbose:
            print(name, *out)
    for key, value in sorted(counts.items()):
        print(f"{key}: {value}")
    print(f"time: {time.perf_counter() - start:.1f} s")
    print(f"most jumps swept: {most_jumps[0]}" + (f" ({most_jumps[1]})" if most_jumps[1] else ""))
    print(f"digest: {digest.hexdigest()}")
    print(f"applied: {applied.hexdigest()}")
    print(f"outputs: {outputs.hexdigest()}")
    if args.grid:
        print(f"grid, largest pdf difference over its largest value: {worst_pdf[0]:.3g} ({worst_pdf[1]})")
        print(f"grid, largest cdf difference: {worst_cdf[0]:.3g} ({worst_cdf[1]})")
        for key, value in sorted(paths.items()):
            print(f"grid, outputs by {key}: {value}")
    if args.save:
        np.savez(args.save, **{f"{name}#{i}": part for name, parts in values.items()
                               for i, part in enumerate(parts)})
    if args.against:
        worst, unmatched = largest_difference(values, load_parts(args.against))
        for label, (value, where) in zip(("relative difference", "difference over its part's 1-norm"),
                                         worst):
            print(f"largest {label}: {value:.3g}" + (f" ({where})" if where else ""))
        print(f"inputs unmatched: {len(unmatched)}" + (f" ({', '.join(unmatched[:5])})" if unmatched else ""))


if __name__ == "__main__":
    main()
