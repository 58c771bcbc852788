"""Supervised and unsupervised discretization of numeric columns.

Three fitting strategies produce cut lists per numeric feature, and
"none" produces no cut list at all:

* binning: equal-width intervals between the observed min and max.
* frequency: equal-frequency intervals; ties on equal values never split
  across a cut, so cuts sit midway between distinct adjacent values, come
  out ascending by construction, and duplicate-forced empty bins merge away.
* mdl: recursive entropy minimization with the MDL stopping rule, which
  accepts a binary split of a segment of n values into subsets with k1
  and k2 classes only when

      gain > (log2(n-1) + log2(3^k - 2) - k*E + k1*E1 + k2*E2) / n

  where E, E1, E2 are the class entropies (in bits) of the segment and
  its two sides and k the number of classes present in the segment.
  The best cut of a segment is found through a log-free proxy whose
  rounding error is bounded (fit_mdl); where that bound cannot tell the
  best point from the runner-up, as on exact ties, the plain entropy
  scan decides, so the cuts are those of the plain scan.

A cut between adjacent distinct values a < b lies in [a, b): their
midpoint, or a where the midpoint rounds up to b. No cut overflows to inf.

Applying a spec rewrites each listed feature into interval value tokens
"(-inf-c1]", "(c1-c2]", ..., "(ck-inf)" and marks it discretized-numeric.
Out-of-range values fall into the end bins, so application is total on
the reals; MISSING stays MISSING. A spec that lists no feature, such as
every "none" spec, returns the dataset it is applied to. Both fitting
and applying work a column at a time: fit reads each feature's column of
value ids once, and apply maps each listed column through a table from
old value id to interval id, sharing every other column, the label ids
and the weights with its input.

A feature is numeric when every observed token parses as a float. Tokens
such as "nan", "inf" and "-inf" parse but are not real numbers: fitting
or applying a spec to a feature holding one raises DataError naming the
feature and the token. Mark such values missing instead.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, count
from math import log2
from operator import eq, ne, sub
from pathlib import Path

from .data import CATEGORICAL, DISCRETIZED, MISSING, Dataset, Feature, left_sum, recode
from .errors import ConfigError, DataError, check_choice, check_count
from .metrics import entropy_bits

log = logging.getLogger(__name__)

METHODS = ("binning", "frequency", "mdl", "none")
#: The most bins a fit may ask for: equal-width binning makes bins - 1 cuts
#: whatever the data holds, and the fitters loop bins - 1 times.
MAX_BINS = 10_000


def check_knobs(method: str, bins: int) -> None:
    """Raise ConfigError for an unknown method or a bins that is not an int
    from 1 to MAX_BINS (any method)."""
    check_choice("discretization method", method, METHODS)
    check_count("bins", bins, 1, MAX_BINS)


@dataclass(frozen=True)
class DiscretizationSpec:
    """Fitted cut lists, keyed by feature name in feature order.

    Cuts are finite ints or floats, strictly ascending; a "none" spec lists no feature.
    """

    method: str
    bins: int
    cuts: dict[str, tuple[float, ...]]

    def __post_init__(self):
        check_knobs(self.method, self.bins)
        if not isinstance(self.cuts, dict):
            raise ConfigError(f"cuts must map feature names to lists, got {self.cuts!r}")
        if self.method == "none" and self.cuts:
            raise ConfigError(f"method 'none' lists no feature, got cuts for {sorted(self.cuts)}")
        for name, cs in self.cuts.items():
            if not isinstance(cs, (list, tuple)):
                raise ConfigError(f"cuts for {name!r} must be a list, got {cs!r}")
            if not set(map(type, cs)) <= {int, float}:  # a bool is an int too, and not a cut
                raise ConfigError(f"cuts for {name!r} are not all numbers: {list(cs)}")
            if not all(map(math.isfinite, cs)):
                raise ConfigError(f"cuts for {name!r} are not all finite: {list(cs)}")
            if any(b <= a for a, b in zip(cs, cs[1:])):
                raise ConfigError(f"cuts for {name!r} are not strictly ascending")
        object.__setattr__(self, "cuts", {k: tuple(v) for k, v in self.cuts.items()})

    def to_text(self) -> str:
        payload = {
            "method": self.method,
            "bins": self.bins,
            "cuts": {k: list(v) for k, v in self.cuts.items()},
        }
        return json.dumps(payload, indent=1) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DiscretizationSpec":
        try:
            payload = json.loads(text)
            return cls(payload["method"], payload["bins"], payload["cuts"])
        except (KeyError, TypeError, ConfigError, json.JSONDecodeError) as exc:
            raise DataError(f"bad discretization spec: {exc}") from None

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DiscretizationSpec":
        try:
            return cls.from_text(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"bad discretization spec: {path} is not UTF-8 ({exc.reason})") from None


def _observed(column, name):
    vals = [v for v in column if v is not None]
    if not vals:
        raise DataError(f"feature {name!r}: all values missing, nothing to discretize")
    return vals


def _midpoint(a: float, b: float) -> float:
    """The cut between adjacent distinct sorted values a < b.

    (a + b) / 2, halving first where the sum overflows, so the cut is
    finite; a where the midpoint rounds up to b (a and b one ulp apart),
    so a <= cut < b and the cut always separates them.
    """
    c = (a + b) / 2.0
    if math.isinf(c):
        c = a / 2.0 + b / 2.0
    return c if c < b else a


def fit_equal_width(column, bins: int, name: str = "column") -> list[float]:
    """Cuts at min + k*(max-min)/bins for k = 1..bins-1; none when min == max.

    Where max - min overflows, the same points are taken as the convex
    combination min*(1-t) + max*t with t = k/bins. Every cut lies in
    [min, max): one that rounds up to max moves to the float below it.
    """
    check_knobs("binning", bins)
    vals = _observed(column, name)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return []
    below_hi = math.nextafter(hi, lo)
    cuts = []
    for k in range(1, bins):
        c = lo + k * (hi - lo) / bins
        if math.isinf(c):
            t = k / bins
            c = lo * (1 - t) + hi * t
        c = min(c, below_hi)
        if not cuts or c > cuts[-1]:
            cuts.append(c)
    return cuts


def fit_equal_frequency(column, bins: int, name: str = "column") -> list[float]:
    """Cuts splitting the sorted column into bins of near-equal population.

    Each cut lands on the legal boundary (between distinct adjacent
    values) closest to the ideal position k*n/bins, at the midpoint of
    the two values. Boundaries forced together by duplicates collapse
    into one, merging the empty bins. Only the distinct values are
    sorted: the legal boundaries are the running sums of their counts.
    """
    check_knobs("frequency", bins)
    counts = Counter(_observed(column, name))
    vals = sorted(counts)
    return _equal_frequency_cuts(vals, list(map(counts.__getitem__, vals)), bins)


def _equal_frequency_cuts(vals, counts, bins: int) -> list[float]:
    """fit_equal_frequency's cuts for ascending vals, where counts[i]
    values equal vals[i]; a value may repeat, and no boundary splits it."""
    ends = list(accumulate(counts))
    n = ends[-1]
    between = list(compress(count(), map(ne, vals, vals[1:])))  # vals[j] < vals[j + 1]
    legal = list(map(ends.__getitem__, between))
    if not legal:
        return []
    cuts = []
    for k in range(1, bins):
        target = k * n / bins
        # nearest legal boundary; of two equally near, the lower one
        i = bisect_left(legal, target)
        if i == len(legal) or (i > 0 and target - legal[i - 1] <= legal[i] - target):
            i -= 1
        # the boundary never moves down as k grows, and _midpoint rises with
        # it: the cuts come out ascending, and a merged bin repeats the last one
        j = between[i]
        c = _midpoint(vals[j], vals[j + 1])
        if not cuts or c != cuts[-1]:
            cuts.append(c)
    return cuts


def _exact_scan(values, ys, lo, hi, counts, width):
    """The reference scan of segment [lo, hi) for fit_mdl: the first point
    whose weighted side entropy no later point beats by more than 1e-12,
    as (weighted, p, e1, e2), or None when every value in it is equal."""
    n = hi - lo
    left, right = [0] * width, counts[:]  # class counts of [lo, p) and [p, hi)
    best = None
    for p in range(lo + 1, hi):
        left[ys[p - 1]] += 1
        right[ys[p - 1]] -= 1
        if values[p - 1] == values[p]:
            continue
        e1, e2 = entropy_bits(left), entropy_bits(right)
        weighted = ((p - lo) * e1 + (hi - p) * e2) / n
        if best is None or weighted < best[0] - 1e-12:
            best = (weighted, p, e1, e2)
    return best


def _mdl_tables(n: int) -> tuple[list[float], list[float]]:
    """fit_mdl's tables for up to n values: g[c] = c*log2(c) for c = 0..n,
    and dg[c] = g[c + 1] - g[c]."""
    g = [0.0] + [c * log2(c) for c in range(1, n + 1)]
    return g, list(map(sub, g[1:], g))


def fit_mdl(column, labels, name: str = "column") -> list[float]:
    """Recursive minimal-entropy cuts accepted by the MDL criterion; checks its input.

    Each segment of n sorted values is cut at the point _exact_scan picks:
    the first whose weighted side entropy w(p), as that scan computes it
    in floats, no later point beats by more than 1e-12. fit_mdl finds the
    same point with constant work and no log call per candidate. With
    g(c) = c*log2(c) tabulated for c = 0..n (fit tabulates it once, up to
    its row count, for all its columns), and sl, sr the sums of g over
    the class counts left and right of p, carried through the
    differences g(c+1) - g(c) as each point crosses over,

        v(p) = g(nl) + g(nr) - sl - sr,   exactly n*w(p) in real arithmetic.

    One pass keeps the smallest v and the runner-up. With u = 2**-53 and
    k the classes present in the segment, both the computed v(p) and the
    scan's float n*w(p) lie within

        E = 2**-51 * (n + k + 8) * (g(n) + 8n)

    of the real n*w(p), for any n below 2**40 (more values than memory
    holds), taking math.log2 to be within one ulp:

    * v: the table entries it uses are within 6.1u*g(n) together; each of
      the 2(n-1) carried updates adds under u*(1.1*g(n) + log2(n) + 2);
      the k-term initial sum and the three operations of v add under
      (k + 3)*u*g(n).
    * n*w: each of the k entropy terms is within 3.6u; each add, product,
      the division and the 1e-12 comparison add under u*log2(k); all
      times n.

    These sum to under half of E; the other half covers the rounding of
    the check itself. The scan ends within 1e-12 of its smallest w, so a
    point it picks other than the proxy's best has v at most
    n*1e-12 + 2E above the best. When the runner-up is further above
    than that, the proxy's best is the scan's point. Otherwise, as on
    exact ties, the segment runs _exact_scan itself. Either way the
    threshold below reads e1, e2 and w of the chosen point from
    entropy_bits, the floats the scan computes.
    """
    column, labels = list(column), list(labels)
    if len(column) != len(labels):
        raise DataError(f"feature {name!r}: {len(column)} values but {len(labels)} labels")
    _observed(column, name)
    return _fit_mdl(column, labels, *_mdl_tables(len(column)))


def _fit_mdl(column: tuple | list, labels, g: list[float], dg: list[float]) -> list[float]:
    """fit_mdl's core, which checks no input, with its tables g and dg (_mdl_tables)
    given for at least as many values as column holds; fit shares them across columns."""
    order = [i for i, v in enumerate(column) if v is not None]
    order.sort(key=column.__getitem__)
    values = list(map(column.__getitem__, order))
    sorted_labels = list(map(labels.__getitem__, order))
    class_ids = {label: y for y, label in enumerate(dict.fromkeys(sorted_labels))}
    ys = list(map(class_ids.__getitem__, sorted_labels))
    width = len(class_ids)
    ties = list(map(eq, values, values[1:]))  # ties[p - 1]: no cut between p - 1 and p

    cuts: list[float] = []
    stack = [(0, len(values), [ys.count(y) for y in range(width)])]
    while stack:
        lo, hi, counts = stack.pop()
        n = hi - lo
        if n < 2:
            continue
        e_whole = entropy_bits(counts)
        if e_whole == 0.0:
            continue
        left, top = [0] * width, [c - 1 for c in counts]
        sl, sr = 0.0, left_sum(map(g.__getitem__, counts))
        first = second = math.inf
        at = None
        p = lo
        for y, tie, gl, gr in zip(ys[lo:hi - 1], ties[lo:hi - 1], g[1:n], g[n - 1:0:-1]):
            p += 1  # the candidate cut before values[p], with g(nl) = gl and g(nr) = gr
            c = left[y]
            left[y] = c + 1
            sl += dg[c]
            sr -= dg[top[y] - c]  # the right count of y falls from top[y] - c + 1
            if tie:
                continue
            v = gl + gr - sl - sr
            if v < first:
                first, second, at = v, first, p
            elif v < second:
                second = v
        if at is None:
            continue
        k = sum(1 for c in counts if c > 0)
        bound = 2.0**-51 * (n + k + 8) * (g[n] + 8 * n)
        if second - first > n * 1e-12 + 2 * bound:
            p = at
        else:
            p = _exact_scan(values, ys, lo, hi, counts, width)[1]
        head = ys[lo:p]
        left = [head.count(y) for y in range(width)]
        right = [a - b for a, b in zip(counts, left)]
        e1, e2 = entropy_bits(left), entropy_bits(right)
        weighted = ((p - lo) * e1 + (hi - p) * e2) / n
        gain = e_whole - weighted
        k1 = sum(1 for c in left if c > 0)
        k2 = sum(1 for c in right if c > 0)
        threshold = (
            math.log2(n - 1)
            + math.log2(3**k - 2)
            - k * e_whole
            + k1 * e1
            + k2 * e2
        ) / n
        if gain > threshold:
            cuts.append(_midpoint(values[p - 1], values[p]))
            stack.append((lo, p, left))
            stack.append((p, hi, right))
    return sorted(cuts)


def interval_labels(cuts) -> tuple[str, ...]:
    """Value tokens for the intervals induced by an ascending cut list."""
    cuts = tuple(cuts)
    if not cuts:
        return ("(-inf-inf)",)
    shown = [format(c, "g") for c in cuts]
    if len(set(shown)) != len(shown):
        # cuts too close for the compact format; fall back to full precision
        shown = [repr(c) for c in cuts]
    labels = [f"(-inf-{shown[0]}]"]
    labels += [f"({a}-{b}]" for a, b in zip(shown, shown[1:])]
    labels.append(f"({shown[-1]}-inf)")
    return tuple(labels)


def _value_floats(d: Dataset, x: int, strict: bool = True) -> tuple[float | None, ...] | None:
    """Feature x's Feature.floats, once every value id observed in d is a finite number.

    An observed token that is not a number raises DataError, or without
    strict makes the result None; a token that parses but is not finite
    ("nan", "inf") always raises. The error names the feature, the token
    and the first instance holding it.
    """
    f = d.features[x]
    floats = f.floats
    if None not in floats and all(map(math.isfinite, floats)):
        return floats  # every value of the schema, so every observed one, is finite
    column = d.column(x)
    seen =[z for z in dict.fromkeys(column) if z != MISSING]  # first appearances, in row order
    for z in seen:
        if floats[z] is None:
            if not strict:
                return None
            raise DataError(
                f"feature {f.name!r}: value {f.values[z]!r} in instance {column.index(z)} "
                "is not numeric"
            )
    for z in seen:
        if not math.isfinite(floats[z]):
            raise DataError(
                f"feature {f.name!r}: value {f.values[z]!r} in instance {column.index(z)} "
                "is not finite"
            )
    return floats


def numeric_features(d: Dataset) -> tuple[str, ...]:
    """Names of d's numeric features, the ones fit discretizes: categorical
    features whose every observed token parses as a float."""
    return tuple(f.name for x, f in enumerate(d.features)
                 if f.kind == CATEGORICAL and _value_floats(d, x, strict=False) is not None)


def fit(d: Dataset, method: str, bins: int = 10, numeric=None) -> DiscretizationSpec:
    """Fit cuts for d's features named in numeric, numeric_features(d) by
    default, skipping one with no observed value in d. A fit on part of a
    dataset passes the whole's numeric_features, so a feature is not made
    numeric by a token the part lacks. mdl uses d's labels; "none" fits
    no feature.
    """
    check_knobs(method, bins)
    cuts: dict[str, tuple[float, ...]] = {}
    if method == "none":
        return DiscretizationSpec(method, bins, cuts)
    numeric = numeric_features(d) if numeric is None else numeric
    rows = d.instances
    tables = None  # fit_mdl's, built once for every column
    for x, (f, ids) in enumerate(zip(d.features, rows.columns)):
        if f.name not in numeric or ids.count(MISSING) == len(ids):
            continue
        floats = _value_floats(d, x)
        if method == "frequency":
            # count value ids; ids of one float ("1.0", "1.00") sort next to each other
            counts = Counter(ids)
            counts.pop(MISSING, None)
            order = sorted(counts, key=floats.__getitem__)
            cs = _equal_frequency_cuts(list(map(floats.__getitem__, order)),
                                       list(map(counts.__getitem__, order)), bins)
        else:
            col = recode(ids, floats, None)
            if method == "binning":
                cs = fit_equal_width(col, bins, f.name)
            else:
                tables = tables or _mdl_tables(len(rows))
                cs = _fit_mdl(col, rows.label_ids, *tables)
        cuts[f.name] = tuple(cs)
    return DiscretizationSpec(method, bins, cuts)


def apply(spec: DiscretizationSpec, d: Dataset) -> Dataset:
    """Rewrite the features named in spec into interval values.

    Total on the reals: values beyond the fitted range land in the end
    bins. MISSING slots stay MISSING. Unlisted features pass through, and
    a spec that lists none returns d itself.
    """
    if not spec.cuts:
        return d
    by_name = {f.name: x for x, f in enumerate(d.features)}
    for name in spec.cuts:
        if name not in by_name:
            raise DataError(f"spec names feature {name!r} absent from {d.name!r}")

    # A listed feature's ids are recoded to its intervals; every other column is shared.
    new_features, columns = list(d.features), list(d.instances.columns)
    for x, f in enumerate(d.features):
        if f.name in spec.cuts:
            cuts = spec.cuts[f.name]
            new_features[x] = Feature(f.name, interval_labels(cuts), DISCRETIZED)
            # Only a value id that d never uses can hold a token that is not a number.
            columns[x] = recode(columns[x], [MISSING if v is None else bisect_left(cuts, v)
                                             for v in _value_floats(d, x)])
    return d._derived(columns, new_features)
