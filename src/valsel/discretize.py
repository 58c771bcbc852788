"""Supervised and unsupervised discretization of numeric columns.

Three fitting strategies produce cut lists per numeric feature, and
"none" produces no cut list at all:

* binning: equal-width intervals between the observed min and max.
* frequency: equal-frequency intervals; ties on equal values never split
  across a cut, so cuts sit midway between distinct adjacent sorted
  values and duplicate-forced empty bins merge away.
* mdl: recursive entropy minimization with the MDL stopping rule, which
  accepts a binary split of a segment of n values into subsets with k1
  and k2 classes only when

      gain > (log2(n-1) + log2(3^k - 2) - k*E + k1*E1 + k2*E2) / n

  where E, E1, E2 are the class entropies (in bits) of the segment and
  its two sides and k the number of classes present in the segment.

Applying a spec rewrites each listed feature into interval value tokens
"(-inf-c1]", "(c1-c2]", ..., "(ck-inf)" and marks it discretized-numeric.
Out-of-range values fall into the end bins, so application is total on
the reals; MISSING stays MISSING. A spec that lists no feature, such as
every "none" spec, returns the dataset it is applied to.

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
from dataclasses import dataclass
from pathlib import Path

from .data import CATEGORICAL, DISCRETIZED, MISSING, Dataset, Feature, Instance
from .errors import ConfigError, DataError
from .metrics import entropy_bits

log = logging.getLogger(__name__)

METHODS = ("binning", "frequency", "mdl", "none")


@dataclass(frozen=True)
class DiscretizationSpec:
    """Fitted cut lists, keyed by feature name in feature order."""

    method: str
    bins: int
    cuts: dict[str, tuple[float, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "cuts", {k: tuple(v) for k, v in self.cuts.items()}
        )
        if self.method not in METHODS:
            raise ConfigError(f"unknown discretization method {self.method!r}")
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {self.bins}")
        for name, cs in self.cuts.items():
            if any(b <= a for a, b in zip(cs, cs[1:])):
                raise ConfigError(f"cuts for {name!r} are not strictly ascending")

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
            return cls(
                payload["method"],
                payload["bins"],
                {k: tuple(v) for k, v in payload["cuts"].items()},
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise DataError(f"bad discretization spec: {exc}") from None

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DiscretizationSpec":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


def _observed(column, name):
    vals = [v for v in column if v is not None]
    if not vals:
        raise DataError(f"feature {name!r}: all values missing, nothing to discretize")
    return vals


def fit_equal_width(column, bins: int, name: str = "column") -> list[float]:
    """Cuts at min + k*(max-min)/bins for k = 1..bins-1; none when min == max."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    vals = _observed(column, name)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return []
    cuts = []
    for k in range(1, bins):
        c = lo + k * (hi - lo) / bins
        if not cuts or c > cuts[-1]:
            cuts.append(c)
    return cuts


def fit_equal_frequency(column, bins: int, name: str = "column") -> list[float]:
    """Cuts splitting the sorted column into bins of near-equal population.

    Each cut lands on the legal boundary (between distinct adjacent
    values) closest to the ideal position k*n/bins, at the midpoint of
    the two values. Boundaries forced together by duplicates collapse
    into one, merging the empty bins.
    """
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    vals = sorted(_observed(column, name))
    n = len(vals)
    legal = [j for j in range(1, n) if vals[j - 1] != vals[j]]
    if not legal:
        return []
    cuts = []
    for k in range(1, bins):
        target = k * n / bins
        j = min(legal, key=lambda pos: (abs(pos - target), pos))
        c = (vals[j - 1] + vals[j]) / 2.0
        if c not in cuts:
            cuts.append(c)
    return sorted(cuts)


def fit_mdl(column, labels, name: str = "column") -> list[float]:
    """Recursive minimal-entropy cuts accepted by the MDL criterion."""
    column = list(column)
    labels = list(labels)
    if len(column) != len(labels):
        raise DataError(
            f"feature {name!r}: {len(column)} values but {len(labels)} labels"
        )
    pts = sorted(
        ((v, l) for v, l in zip(column, labels) if v is not None),
        key=lambda p: p[0],
    )
    if not pts:
        raise DataError(f"feature {name!r}: all values missing, nothing to discretize")
    values = [p[0] for p in pts]
    class_ids: dict = {}
    ys = [class_ids.setdefault(l, len(class_ids)) for _, l in pts]
    width = len(class_ids)

    cuts: list[float] = []
    stack = [(0, len(values))]
    while stack:
        lo, hi = stack.pop()
        n = hi - lo
        if n < 2:
            continue
        counts = [0] * width
        for y in ys[lo:hi]:
            counts[y] += 1
        e_whole = entropy_bits(counts)
        if e_whole == 0.0:
            continue
        # class counts of [lo, p) and [p, hi), moved one point at a time
        left, right = [0] * width, counts[:]
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
        if best is None:
            continue
        weighted, p, e1, e2 = best
        gain = e_whole - weighted
        k = sum(1 for c in counts if c > 0)
        k1, k2 = len(set(ys[lo:p])), len(set(ys[p:hi]))
        threshold = (
            math.log2(n - 1)
            + math.log2(3**k - 2)
            - k * e_whole
            + k1 * e1
            + k2 * e2
        ) / n
        if gain > threshold:
            cuts.append((values[p - 1] + values[p]) / 2.0)
            stack.append((lo, p))
            stack.append((p, hi))
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


def _value_floats(d: Dataset, x: int, strict: bool = True) -> dict[int, float] | None:
    """Float of each observed value id of feature x, each token parsed once.

    A token that is not a number raises DataError, or without strict
    makes the result None; a token that parses but is not finite ("nan",
    "inf") always raises. The error names the feature, the token and the
    first instance holding it.
    """
    f = d.features[x]
    first: dict[int, int] = {}
    for i, z in enumerate(d.column(x)):
        if z not in first:
            first[z] = i
    first.pop(MISSING, None)
    floats = {}
    for z, i in first.items():
        try:
            floats[z] = float(f.values[z])
        except ValueError:
            if not strict:
                return None
            raise DataError(
                f"feature {f.name!r}: value {f.values[z]!r} in instance {i} is not numeric"
            ) from None
    for z, v in floats.items():
        if not math.isfinite(v):
            raise DataError(
                f"feature {f.name!r}: value {f.values[z]!r} in instance {first[z]} is not finite"
            )
    return floats


def fit(d: Dataset, method: str, bins: int = 10) -> DiscretizationSpec:
    """Fit cuts for every numeric-looking feature of d.

    Numeric-looking means categorical with every observed token parsing
    as a float; columns with no observed values are skipped. The mdl
    method uses d's labels; "none" fits no feature.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown discretization method {method!r}")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    cuts: dict[str, tuple[float, ...]] = {}
    if method == "none":
        return DiscretizationSpec(method, bins, cuts)
    label_ids = [inst.label for inst in d.instances]
    for x, f in enumerate(d.features):
        floats = _value_floats(d, x, strict=False) if f.kind == CATEGORICAL else None
        if not floats:
            continue
        col = [None if z == MISSING else floats[z] for z in d.column(x)]
        if method == "binning":
            cs = fit_equal_width(col, bins, f.name)
        elif method == "frequency":
            cs = fit_equal_frequency(col, bins, f.name)
        else:
            cs = fit_mdl(col, label_ids, f.name)
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

    new_features = []
    bin_of: dict[int, dict[int, int]] = {}  # feature -> value id -> bin id
    for x, f in enumerate(d.features):
        if f.name not in spec.cuts:
            new_features.append(f)
            continue
        cuts = spec.cuts[f.name]
        new_features.append(Feature(f.name, interval_labels(cuts), DISCRETIZED))
        bins = {z: bisect_left(cuts, v) for z, v in _value_floats(d, x).items()}
        bins[MISSING] = MISSING
        bin_of[x] = bins

    new_instances = []
    for inst in d.instances:
        slots = list(inst.slots)
        for x, bins in bin_of.items():
            slots[x] = bins[slots[x]]
        new_instances.append(Instance(tuple(slots), inst.label, inst.weight))
    return Dataset(tuple(new_features), tuple(new_instances), d.labels, d.name)
