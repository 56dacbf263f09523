"""Audit libm's pow against the prover's pad on one certificate table pass.

Runs `table1_rows()` (what `memsplate table1` computes) with the row
kernel `term_bounds` and `pow_bounds`
recording every (x, float(p)) they raise to a power, then checks each
distinct pair against x**p in 50-digit decimal, taking x and the float
exponent exactly.  Prints the number of pairs, the worst relative error of
`x ** float(p)`, and its ratio to the pad `_POW_REL`; a ratio of 1 or more
would mean the enclosures rest on a pad that libm does not keep.  Powers
that overflow, or underflow out of the normal range, are counted apart:
the pad does not cover them and the kernel treats them on their own.

Not collected by pytest (no `test_` prefix).  Run from the repository root:

    python tests/audit_pow.py
"""

from __future__ import annotations

import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import memsplate.exprs as exprs  # noqa: E402
from memsplate.certificates import table1_rows  # noqa: E402
from memsplate.intervals import _POW_REL, pow_bounds, term_bounds  # noqa: E402
from test_intervals import _exact_pow  # noqa: E402

_NORMAL_MIN = 2.0 ** -1022


def _record(pairs: set):
    """Spies on the two power entry points that add (x, float(p)) to pairs."""

    def kernel(x, terms):
        pairs.update((x, pf) for _, _, pf, _ in terms)
        return term_bounds(x, terms)

    def power(x, p):
        if x > 0.0:
            pairs.add((x, float(p)))
        return pow_bounds(x, p)

    return kernel, power


def _relative_error(x: float, pf: float) -> Decimal | None:
    """|x**pf - exact| / exact in decimal, or None outside the normal range."""
    try:
        v = x ** pf
    except OverflowError:
        return None
    if not _NORMAL_MIN <= v < float("inf"):
        return None
    exact = _exact_pow(x, Fraction(pf))
    return abs(Decimal(v) - exact) / exact


def main() -> None:
    pairs: set = set()
    kernel, power = _record(pairs)
    exprs.term_bounds, exprs.pow_bounds = kernel, power
    t0 = time.perf_counter()
    try:
        table1_rows()
    finally:
        exprs.term_bounds, exprs.pow_bounds = term_bounds, pow_bounds
    t1 = time.perf_counter()
    worst, at, skipped = Decimal(0), None, 0
    for x, pf in pairs:
        err = _relative_error(x, pf)
        if err is None:
            skipped += 1
        elif err > worst:
            worst, at = err, (x, pf)
    t2 = time.perf_counter()
    print(f"{len(pairs)} distinct (x, float(p)) pairs, {skipped} outside the normal range")
    print(f"worst relative error {float(worst):.3g} at x = {at[0]!r}, p = {at[1]!r}")
    print(f"ratio to _POW_REL = {_POW_REL:g}: {float(worst) / _POW_REL:.3g}")
    print(f"table pass {t1 - t0:.1f} s, decimal check {t2 - t1:.1f} s")


if __name__ == "__main__":
    main()
