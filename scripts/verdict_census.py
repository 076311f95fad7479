#!/usr/bin/env python3
"""Convert three input families and print each one's verdicts and their digest.

The families are built by their recipes in ROADMAP.md:

* ``damped``: 600 draws of ``f(x) = e^-x + c e^(-a x) cos(b x + phi)`` from
  ``default_rng(0)``, one draw being ``a ~ U(1.2, 4)``, ``b ~ 10^U(1, 2.5)``,
  ``c ~ U(0.2, 3)`` and ``phi ~ U(0, 2 pi)``; about two thirds are negative
  somewhere;
* ``hypoexponential``: 200 chains from ``default_rng(1)``, of order
  ``integers(3, 9)`` with rates ``sort(uniform(1, 3, n))``, ``alpha = e_1``
  and a bidiagonal matrix; every one has a positive density that vanishes
  at 0 like ``x^(n-1)``;
* ``boundary``: ``f(x) = e^-x + c e^(-1.75 x) cos(1.6 x + 0.3)`` with
  ``c = 3.407025584758154 (1 - delta)`` for ``delta = 1e-1`` to ``1e-11``,
  positive and closing in on a zero as ``delta`` falls.

An input's verdict line is its index and the output's order, or the error's
class and message.  Per family the script prints the count of each verdict
(``converted`` or the error's class), the largest relative error of the first
five moments over the converted inputs, and a sha256 of the verdict lines.
Two checkouts that print the same digest gave every input the same verdict,
messages included.  It uses only the package's public API and
``tests/genutil.py``, so it runs on any checkout that has them.

Run from the root of a source checkout:

    python3 scripts/verdict_census.py
    python3 scripts/verdict_census.py --verbose   # also one line per input
"""

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests"):
    sys.path.insert(0, str(ROOT / sub))

from genutil import rep_from_terms  # noqa: E402
from me2ph import MERep, Me2PhError, convert, moments, phrep_moments  # noqa: E402

BOUNDARY_C = 3.407025584758154


def damped():
    rng = np.random.default_rng(0)
    for _ in range(600):
        a = rng.uniform(1.2, 4.0)
        b = 10.0 ** rng.uniform(1.0, 2.5)
        c = rng.uniform(0.2, 3.0)
        phi = rng.uniform(0.0, 2 * np.pi)
        yield rep_from_terms([(-1.0, [1.0]), (complex(-a, b), [c * np.exp(1j * phi) / 2])])


def hypoexponential():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        rates = np.sort(rng.uniform(1.0, 3.0, n))
        alpha = np.zeros(n)
        alpha[0] = 1.0
        yield MERep(alpha, np.diag(-rates) + np.diag(rates[:-1], 1))


def boundary():
    for k in range(1, 12):
        c = BOUNDARY_C * (1 - 10.0 ** -k)
        yield rep_from_terms([(-1.0, [1.0]), (-1.75 + 1.6j, [c * np.exp(0.3j) / 2])])


FAMILIES = {"damped": damped, "hypoexponential": hypoexponential, "boundary": boundary}


def verdict(rep) -> tuple[str, str, float | None]:
    """The verdict's kind, its line, and the largest relative moment error
    (k <= 5) of the output, ``None`` when the conversion fails."""
    try:
        ph, _ = convert(rep)
    except Me2PhError as exc:
        name = type(exc).__name__
        return name, f"{name}: {exc}", None
    m_ph, m_rep = np.array(phrep_moments(ph, 5)), np.array(moments(rep, 5))
    return "converted", f"order {ph.order}", float(np.abs(m_ph / m_rep - 1).max())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="print one line per input")
    args = parser.parse_args()
    for family, inputs in FAMILIES.items():
        counts, digest, worst = Counter(), hashlib.sha256(), 0.0
        for i, rep in enumerate(inputs()):
            kind, line, err = verdict(rep)
            line = f"{i} {line}"
            counts[kind] += 1
            digest.update(line.encode() + b"\n")
            if err is not None:
                worst = max(worst, err)
            if args.verbose:
                print(f"{family} {line}")
        print(f"{family}: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
        print(f"{family} moment error: {worst:.2g}")
        print(f"{family} digest: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
