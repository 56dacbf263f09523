"""Rigorous sign verification and extremum enclosures for signomials on (0,1).

Every certificate and `hr` weight verdict is a proof made here: each claim is
reduced (by clearing denominators) to nonnegativity of a signomial
sum c_k r^(p_k) on the open interval (0,1), which is decided here by:

* exact leading-term analysis at r -> 0 (factor out the minimal power; the
  resulting constant term is the limit and must be positive);
* exact evaluation at r = 1 (rational sum of coefficients); when it vanishes,
  a monotonicity argument on a left neighborhood [a2, 1] via the (exact)
  derivative, applied recursively: the first window is the collar
  a2 = 1 - 1e-2 and each next one halves 1 - a2; the window search stops
  when a cell at r = 1 stays unresolved, since a narrower window keeps it;
* adaptive outward-rounded interval bisection on the remaining compact core,
  every one down to cells of width `_MIN_WIDTH`.

Each layer returns the bisection's `intervals.ProofReport`: `_prove_upper`
returns it as it is when sig(1) > 0 and sets the reasons of a zero at r = 1
otherwise; `prove_signomial_nonneg` sets those of the limit at r = 0.  Each
adds its own boxes.  One budget bounds a whole proof: `max_boxes` counts
every box of every layer, and each step gets what the earlier ones left.

The infimum of a ratio of signomials is enclosed by one search over levels
c of the claim "num - c*den >= 0 on (0,1)", whose first level is an exact
endpoint limit when the caller has one.  The search stops once the proved
level lo satisfies lo >= bad - _LEVEL_REL_TOL * scale, bad the lowest level
not proved: the expression the first anchor is built from, so a proved
first anchor ends it.  The level proofs share one budget,
`_LEVEL_MAX_BOXES`.  A supremum is the negated infimum of -num/den; the
caller negates.

The grid minimum `sampled_mins` reports values and decides no verdict; it is
a branch and bound that returns the whole grid's answer bit for bit:

* seed: every `_SEED_STRIDE`-th grid point is evaluated exactly, and each
  ratio's smallest seed value beta is a real grid value;
* cell bound: on cells of consecutive grid points, one matrix product of
  the powers at the cells' ends and midpoints bounds every signomial, by
  the termwise hull (each c*r**p is monotone on a cell) intersected with
  the centred form;
* margin: a (cell, ratio) is dropped only when the lower bounds of den and
  of num - beta*den exceed 10**4 times a bound on the float error of an
  evaluation plus a bound, so every value in a dropped cell is above beta
  by more than an ulp: no dropped point is the minimum or ties with it;
* refine and evaluate: kept cells are split and bounded again, and the
  block pass evaluates the points of the last kept cells.  A value does
  not depend on which points share its block, so each equals the
  whole-grid evaluation, and the first occurrence of the minimum is kept.

Memory is one block of points per distinct exponent and per signomial in
the passes, and a few rows of one block of cells per distinct exponent in
the bounds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .exprs import Signomial, _frac
from .intervals import ProofReport, frac_bounds, prove_nonneg


def _prove_upper(sig: Signomial, a: float, depth: int, max_boxes: int) -> ProofReport:
    """Certify sig >= 0 on [a, 1] in at most `max_boxes` boxes (one more for
    a last point evaluation), handling a possible zero of sig at r = 1.

    When sig(1) = 0 exactly, sig >= 0 on [a2, 1] follows from sig being
    non-increasing there (-sig' >= 0 on [a2, 1], recursively the same kind of
    claim).  The first window is the collar a2 = max(a, 1 - 1e-2), and each
    next one halves 1 - a2 until the derivative claim is provable; the
    remaining [a, a2] is handled by plain bisection.  A whole-interval first
    window would fail for most claims, and its failures cost more than the
    bisection of [a, a2] saves.  The windows are essential when the slope at
    the root is orders of magnitude below the coefficient scale: no
    fixed-width collar enclosure is then sign-definite near 1, but the
    derivative claim is.  Each window attempt, and the last bisection, gets
    the boxes the earlier ones left.
    """
    v1 = sig.value_at_one()
    if v1 < 0:
        return ProofReport(False, counterexample=1.0, reason="negative value at r=1")
    if v1 > 0:
        return prove_nonneg(sig.enclosure, a, 1.0, min_width=_MIN_WIDTH, max_boxes=max_boxes)
    if depth == 0:
        return ProofReport(False, reason="derivative depth exhausted at r=1")
    d = -sig.diff()
    a2 = max(a, 1.0 - 1e-2)
    boxes = 0  # every derivative-window attempt, failed ones included
    for _ in range(45):
        drep = _prove_upper(d, a2, depth - 1, max_boxes - boxes)
        boxes += drep.boxes
        if drep.proved:
            if a2 <= a:
                return ProofReport(True, boxes=boxes,
                                   reason=f"non-increasing into zero ({drep.reason})")
            rep = prove_nonneg(sig.enclosure, a, a2, min_width=_MIN_WIDTH,
                               max_boxes=max_boxes - boxes)
            rep.boxes += boxes
            rep.reason = ("non-increasing collar + bisection" if rep.proved
                          else "not sign-definite left of the collar")
            return rep
        if (drep.counterexample == 1.0 or any(hi == 1.0 for _, hi in drep.inconclusive)
                or boxes >= max_boxes):
            # a negative derivative value at 1, or a cell at 1 that stayed
            # unresolved, is in every narrower window too; and a spent
            # budget leaves no box for one
            return ProofReport(False, boxes=boxes, reason=f"zero at r=1; {drep.reason}")
        a2 = 1.0 - 0.5 * (1.0 - a2)
    return ProofReport(False, boxes=boxes, reason="no provable non-increasing window at r=1")


#: nested derivative claims `_prove_upper` may try at a zero at r = 1
_DERIVATIVE_DEPTH = 4
#: every bisection splits its cells down to this width
_MIN_WIDTH = 1e-12
#: `inf_enclosure`'s bracket width relative to the point value, and the box
#: budget of its whole level search (the largest search of a `table1` pass,
#: N = 9 cond2, takes 547 boxes)
_LEVEL_REL_TOL = 1e-5
_LEVEL_MAX_BOXES = 50_000


def prove_signomial_nonneg(sig: Signomial, max_boxes: int = 2_000_000) -> ProofReport:
    """Prove sig(r) >= 0 for all r in the open interval (0, 1).

    `max_boxes` bounds the whole proof: the point evaluations at r -> 0
    count against it, and each later step gets what the earlier ones left.
    A proof may end one box over it, on a last point evaluation.  A proof
    that spends it without a counterexample says so in its reason.
    """
    if not sig.terms:
        return ProofReport(True, reason="identically zero")
    _, g = sig.factor_min_power()
    c0 = g.terms.get(Fraction(0), Fraction(0))
    if c0 < 0:
        # the limit at r -> 0+ is negative; exhibit a concrete witness
        for boxes, k in enumerate(range(2, 300), start=1):
            r = 2.0 ** -k
            if g.enclosure(r, r).hi < 0:
                return ProofReport(False, counterexample=r, boxes=boxes,
                                   reason="negative limit at r=0")
            if boxes >= max_boxes:
                break
        return ProofReport(False, boxes=boxes, reason="negative limit at r=0")
    if c0 == 0:
        # cannot happen after factoring unless sig == 0, handled above
        raise AssertionError("minimal-power coefficient vanished")

    # collar at r = 0: the enclosure converges to c0 > 0 as the width shrinks
    eps0 = 0.25
    for collar_boxes in range(1, 201):
        if g.enclosure(0.0, eps0).lo >= 0:
            rep = _prove_upper(g, eps0, _DERIVATIVE_DEPTH, max_boxes - collar_boxes)
            break
        if collar_boxes == 200 or collar_boxes >= max_boxes:
            rep = ProofReport(False, inconclusive=[(0.0, eps0)],
                              reason="no sign-definite collar at r=0")
            break
        eps0 *= 0.5
    rep.boxes += collar_boxes
    if not rep.proved and rep.counterexample is None and rep.boxes >= max_boxes:
        rep.reason = f"box budget of {max_boxes} spent: {rep.reason}"
    return rep


SAMPLES = 200_001  # the sampling pass's grid on (0, 1) has SAMPLES - 1 points
_GRID_START = 1e-9  # the grid's smallest point, where its log-uniform half starts
_CHUNK = 8192       # grid points per block of the sampling pass
_SEED_STRIDE = 128  # the seed pass evaluates every 128th grid point
#: grid points per cell at each bounding level: a cell that some pair may
#: hold its minimum in is split into cells of the next size
_CELL_SIZES = (512, 64, 8)
_CELL_BLOCK = 512   # cells per block of bound arrays
#: a cell is dropped only when its bound clears this many times the worst
#: float error of an evaluation plus a bound
_SAFETY = 1e4
_TINY = 2.0 ** -1000  # absolute part of the margin, for underflowed terms


@functools.lru_cache(maxsize=4)
def _log_uniform_points(n: int) -> np.ndarray:
    """Deterministic sampling of (0,1): log-uniform plus uniform points.

    Strictly increasing (`np.unique`), so a run of consecutive indices holds
    exactly the grid points between its first and last point.  Built once
    per n and shared, so the array is read-only.
    """
    k = n // 2
    a = np.exp(np.linspace(math.log(_GRID_START), 0.0, k, endpoint=False))
    b = np.linspace(0.0, 1.0, n - k, endpoint=False)[1:]
    r = np.unique(np.concatenate([a, b]))
    r.flags.writeable = False
    return r


class SampledMins(list):
    """The (value, argmin) of each pair, in order; `points` is the number of
    grid points the sampling pass evaluated."""

    def __init__(self, mins, points: int):
        super().__init__(mins)
        self.points = points


def _grid_pass(pairs, rows: dict, r: np.ndarray, at: np.ndarray) -> list:
    """(value, grid index) of each pair's first-occurrence minimum over the
    grid points r[at], `at` increasing, NaNs ignored; None where every value
    is NaN.

    The points go in blocks of `_CHUNK`.  A block computes each distinct
    power r**p once for all the pairs, then sums each signomial in its own
    term order, so each value equals `num(r) / den(r)` at its point bit for
    bit, whatever points share its block.
    """
    exps = {p for row in rows.values() for _, p in row}
    best = [None] * len(pairs)
    term = np.empty(_CHUNK)
    for start in range(0, len(at), _CHUNK):
        idx = at[start:start + _CHUNK]
        x = r[idx]
        t = term[:len(x)]
        pows = {p: x ** p for p in exps}
        vals = {}
        for key, row in rows.items():
            vals[key] = out = np.zeros_like(x)
            for c, p in row:
                out += np.multiply(c, pows[p], out=t)
        for k, (num, den) in enumerate(pairs):
            v = vals[id(num)] if den is None else vals[id(num)] / vals[id(den)]
            i = int(np.argmin(v))  # lands on the first NaN if there is one
            if np.isnan(v[i]):
                try:
                    i = int(np.nanargmin(v))
                except ValueError:  # every ratio in this block is NaN
                    continue
            if best[k] is None or v[i] < best[k][0]:
                best[k] = (float(v[i]), int(idx[i]))
    return best


def _bound_weights(terms: list) -> tuple[np.ndarray, np.ndarray]:
    """The distinct exponents, and the matrix taking their powers at the
    cells' ends and midpoints to `_cell_bounds`'s quantities.

    `terms` lists each signomial's (c, p) float terms.  Each c*x**p and each
    derivative term c*p*x**(p-1) is monotone on a cell, so where it is
    smallest and largest on the cell [a, b] depends only on the signs of c
    and p and of c*p and p - 1.  The columns are the powers x**p at a, mid
    and b, then x**(p-1) at a and b, one exponent after another; the rows
    are the seven quantities of each signomial.
    """
    sig = np.repeat(np.arange(len(terms)), [len(row) for row in terms])
    c = np.array([c for row in terms for c, _ in row])
    exps, e = np.unique([p for row in terms for _, p in row], return_inverse=True)
    p = exps[e]
    cp = c * p
    rise, drise = p > 0, p > 1  # x**p, x**(p-1) increase on a cell
    lo_at = np.where((c > 0) == rise, 0, 2)     # end of the smallest c*x**p
    dlo_at = np.where((cp > 0) == drise, 3, 4)  # ... of the smallest c*p*x**(p-1)
    w = np.zeros((len(terms), 7, 5, len(exps)))
    for q, (at, coef) in enumerate([(lo_at, c), (2 - lo_at, c), (1, c),
                                    (dlo_at, cp), (7 - dlo_at, cp),
                                    (np.where(rise, 2, 0), abs(c)),
                                    (np.where(drise, 4, 3), abs(cp))]):
        np.add.at(w, (sig, q, at, e), coef)
    return exps, w.reshape(len(terms) * 7, 5 * len(exps))


def _cell_bounds(weights: np.ndarray, exps: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Float bounds of signomials on the cells [a, b] (arrays of ends).

    Returns the cells' half-width h and an array indexed [signomial,
    quantity, cell] of seven quantities (`_bound_weights`): the termwise
    hull lo, hi of the values (each term's extremes on a cell lie at its
    ends), the value at the cell's midpoint, the termwise hull dlo, dhi of
    the derivative, and s and ds, the sums over the terms and over the
    derivative terms of their largest modulus on the cell.  A power that
    overflows leaves a non-finite bound.
    """
    mid = 0.5 * (a + b)
    h = np.maximum(mid - a, b - mid)
    pows = np.array([a, mid, b])[:, None] ** exps[:, None]  # [a/mid/b, exponent, cell]
    cols = np.concatenate([pows.reshape(-1, len(a)), pows[0] / a, pows[2] / b])
    return h, (weights @ cols).reshape(-1, 7, len(a))


def _above(num: np.ndarray, den: np.ndarray, beta: float, h, scale: float,
           floors: tuple) -> np.ndarray:
    """Mask of the cells on which every grid value of num/den is above beta.

    `num` and `den` are `_cell_bounds` quantities of one signomial each.
    The lower bounds of den and of g = num - beta*den are each the termwise
    one raised to the centred form f(mid) - h*max|f'|.  A cell passes when
    den's bound exceeds its margin and g's bound exceeds its margin, both
    finite: `scale` times the sums of term moduli (plus h times the
    derivative's), and an absolute part `_TINY` times `floors` (and times
    den's upper bound, for g).
    """
    lo_n, _, mid_n, dlo_n, dhi_n, s_n, ds_n = num
    lo_d, hi_d, mid_d, dlo_d, dhi_d, s_d, ds_d = den
    if beta >= 0:
        lo_g, dlo_g, dhi_g = lo_n - beta * hi_d, dlo_n - beta * dhi_d, dhi_n - beta * dlo_d
    else:
        lo_g, dlo_g, dhi_g = lo_n - beta * lo_d, dlo_n - beta * dlo_d, dhi_n - beta * dhi_d
    lo_g = np.maximum(lo_g, mid_n - beta * mid_d - h * np.maximum(-dlo_g, dhi_g))
    lo_d = np.maximum(lo_d, mid_d - h * np.maximum(-dlo_d, dhi_d))
    fn, fd = floors
    margin_d = scale * (s_d + h * ds_d) + _TINY * fd
    margin_g = (scale * (s_n + abs(beta) * s_d + h * (ds_n + abs(beta) * ds_d))
                + _TINY * (fn + abs(beta) * fd + hi_d))
    return (np.isfinite(margin_d) & np.isfinite(margin_g)
            & (lo_d > margin_d) & (lo_g > margin_g))


def _candidate_points(pairs, rows: dict, r: np.ndarray, seeds: list) -> np.ndarray:
    """Increasing indices of the grid points in the cells some pair kept.

    A pair with a finite seed value beta drops each cell on which `_above`
    proves all its values above beta; a pair without one keeps every cell.
    The first cells have `_CELL_SIZES[0]` points, and each level splits the
    kept cells into cells of the next size.  The bound arrays are computed
    `_CELL_BLOCK` cells at a time.
    """
    n = len(r)
    terms = [*rows.values(), [(1.0, 0.0)]]  # last: a bare signomial's denominator, 1
    order = {key: k for k, key in enumerate([*rows, None])}
    exps, weights = _bound_weights(terms)
    floors = [sum(abs(c) * (1.0 + abs(p)) + 1.0 for c, p in row) for row in terms]
    checks = []  # (pair, num, den, beta, scale)
    for k, ((num, den), seed) in enumerate(zip(pairs, seeds)):
        if seed is not None and math.isfinite(seed[0]):
            kn, kd = order[id(num)], order[None if den is None else id(den)]
            n_terms = len(terms[kn]) + len(terms[kd])
            checks.append((k, kn, kd, seed[0], _SAFETY * (n_terms + 30) * 2.0 ** -52))
    size = _CELL_SIZES[0]
    starts = np.arange(0, n, size)
    keep = np.ones((len(pairs), len(starts)), dtype=bool)
    with np.errstate(all="ignore"):
        for level, size in enumerate(_CELL_SIZES):
            if level:
                split = _CELL_SIZES[level - 1] // size
                starts = (starts[:, None] + np.arange(0, split * size, size)).ravel()
                keep = np.repeat(keep, split, axis=1)
                inside = starts < n
                starts, keep = starts[inside], keep[:, inside]
            for lo in range(0, len(starts), _CELL_BLOCK):
                cells = slice(lo, lo + _CELL_BLOCK)
                first = starts[cells]
                h, bounds = _cell_bounds(weights, exps, r[first],
                                         r[np.minimum(first + size, n) - 1])
                for k, kn, kd, beta, scale in checks:
                    keep[k, cells] &= ~_above(bounds[kn], bounds[kd], beta, h,
                                              scale, (floors[kn], floors[kd]))
            kept = keep.any(axis=0)
            if kept.all():  # bounds this loose drop nothing finer either
                break
            starts, keep = starts[kept], keep[:, kept]
    points = (starts[:, None] + np.arange(size)).ravel()
    return points[points < n]


def sampled_mins(pairs, n: int = SAMPLES) -> SampledMins:
    """(min value, argmin) of each num/den over a dense deterministic sample of (0,1).

    `pairs` is a sequence of (num, den) with den None for a bare signomial.
    The result is that of evaluating every pair on the whole grid: each
    value equals `num(r) / den(r)` bit for bit, and the argmin is the first
    occurrence of the minimum, NaNs ignored, as `np.nanargmin` over the
    whole grid; an all-NaN ratio raises ValueError as it does.  But only the
    grid points that may hold a minimum are evaluated:

    * Seed.  `_grid_pass` evaluates every `_SEED_STRIDE`-th grid point
      exactly.  Each pair's smallest seed value beta is a grid value.
    * Bound and prune.  The grid is cut into cells of consecutive points.
      One matrix product of the powers at the cells' ends and midpoints
      bounds every signomial on every cell of a block (`_cell_bounds`):
      the termwise hull (each c*r**p is monotone on a cell) intersected
      with the centred form f(mid) +- h*max|f'|.  A (cell, pair) is dropped
      when den's lower bound and the lower bound of num - beta*den each
      exceed a margin (`_above`).  The margin is 10**4 times a bound on the
      float error of an evaluation plus that of the bound: (number of
      terms + 30) * 2**-52 times the sum of the term moduli on the cell,
      which allows each power, product and sum a few ulps; an absolute
      part, 2**-1000 times the coefficients and den's upper bound, covers
      underflowed powers.  So the computed value at every point of a
      dropped cell exceeds beta by more than an ulp: it is neither the
      minimum nor tied with it.  Bounds that are not finite, or a den that
      is not provably positive, drop nothing.
    * Refine.  The cells some pair kept are split (`_CELL_SIZES`) and
      bounded again.  A level that drops no cell ends the refinement.
    * Evaluate.  `_grid_pass` evaluates the points of the last kept cells
      that the seed did not.  Every point whose value is at most its pair's
      beta is among the seed and these points, so the smaller of the two
      minima, the earlier on a tie, is the whole grid's.

    Memory is one `_CHUNK` block per distinct exponent and per signomial
    in the passes, and five rows of `_CELL_BLOCK` cells per distinct
    exponent in the bounds, never a grid-length array per exponent.  The
    result's `points` counts the grid points evaluated: the whole grid when
    nothing can be dropped.
    """
    r = _log_uniform_points(n)
    rows = {id(s): [(float(c), float(p)) for p, c in s.terms.items()]
            for pair in pairs for s in pair if s is not None}
    seed_at = np.arange(0, len(r), _SEED_STRIDE)
    seeds = _grid_pass(pairs, rows, r, seed_at)
    rest_at = np.setdiff1d(_candidate_points(pairs, rows, r, seeds), seed_at,
                           assume_unique=True)
    best = [min(filter(None, both), default=None)
            for both in zip(seeds, _grid_pass(pairs, rows, r, rest_at))]
    if None in best:
        raise ValueError("All-NaN slice encountered")
    return SampledMins([(v, float(r[i])) for v, i in best], len(seed_at) + len(rest_at))


def sampled_min(num: Signomial, den: Signomial | None, n: int = SAMPLES):
    """(min value, argmin) of num/den over a dense deterministic sample of (0,1)."""
    return sampled_mins([(num, den)], n)[0]


def inf_enclosure(num: Signomial, den: Signomial | None = None,
                  argmin: float | None = None, limit: Fraction | None = None):
    """Certified enclosure (lo, hi, argmin, levels) of inf over (0,1) of num/den.

    Requires den > 0 on (0,1).  `limit`, an exact limit of num/den at an
    endpoint, caps hi and is the first level tried; when it is proved, its
    lower float bound is lo.  Otherwise lo is bisected between a provable
    level below the verified point value at the sampled argmin (pass
    `argmin` if already sampled) and that value.  The bisection stops once
    lo >= bad - _LEVEL_REL_TOL * scale, bad the lowest level not proved
    (first the point value) and scale the point value's modulus: the
    expression the first anchor point - _LEVEL_REL_TOL * scale is built
    from, so a proved first anchor ends the search.  When the point value
    is unbounded, or no level is provable, lo is -inf.  `levels` counts
    the level proofs run, the limit's included.

    The level proofs share one budget of `_LEVEL_MAX_BOXES` boxes, each
    getting what the earlier ones left.  Once it is spent no level proof
    starts, and lo is the last proved level, or -inf if none was proved.
    """
    denom = den if den is not None else Signomial.constant(1)
    left, levels = _LEVEL_MAX_BOXES, 0

    def provable(c) -> bool:
        nonlocal left, levels
        claim = num - Signomial.constant(_frac(c)) * denom
        rep = prove_signomial_nonneg(claim, max_boxes=left)
        left -= rep.boxes
        levels += 1
        return rep.proved

    r_hat = argmin if argmin is not None else sampled_min(num, den)[1]
    e = num.enclosure(r_hat, r_hat)
    point = hi = (e if den is None else e / den.enclosure(r_hat, r_hat)).hi
    if limit is not None:
        cl, ch = frac_bounds(limit)
        hi = min(point, ch)
        if provable(limit):
            return cl, hi, r_hat, levels
    if not math.isfinite(point):
        return -math.inf, hi, r_hat, levels

    # find a provable anchor below the sampled minimum
    scale = abs(point) if point != 0.0 else 1.0
    step = _LEVEL_REL_TOL * scale
    for _ in range(60):
        lo = point - step
        if lo == -math.inf or left <= 0:
            # point is near -DBL_MAX, so no float level is left below it, or
            # the budget is spent
            return -math.inf, hi, r_hat, levels
        if provable(lo):
            break
        step *= 4.0
    else:
        return -math.inf, hi, r_hat, levels

    # bisect the level between the provable anchor and the point value
    bad = point
    while lo < bad - _LEVEL_REL_TOL * scale and left > 0:
        mid = 0.5 * (lo + bad)
        if provable(mid):
            lo = mid
        else:
            bad = mid
    return lo, hi, r_hat, levels
