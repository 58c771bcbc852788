"""Per-value class-purity metrics driving probabilistic value selection.

For feature x and value z with weighted support n(x,z), the class
distribution p(l | x=z) yields the value's confusion

    H(x,z) = -sum_l p(l|x=z) * log_|L| p(l|x=z)      (0*log 0 = 0)

which lies in [0, 1] because the log base is the label count; a pure
value scores 0 and an evenly split one scores 1. The dataset confusion
H(D) is, by definition here, the sum of H over every observed value of
every feature, and information gain is measured against it:

    IG(x,z)   = H(D) - H(x,z)                         (never negative)
    IG_N(x,z) = IG(x,z) / max_{z' in V^x} IG(x,z')

When a feature's max IG is 0 (every value equally informative, e.g. a
single-label dataset) IG_N is defined as 1 for all of its values. The
conventional class-marginal reading of H(D) is available through
dataset_entropy="class" for sensitivity checks; it can make raw IG
negative, which is clamped at 0 (per-feature rankings are unaffected).

A value's removal probability under amplifier epsilon is

    entropy metric:   min(1, H / epsilon)
    infogain metric:  min(1, (1 - IG_N) / epsilon)

Value weights w(x,z) = n(x,z) / n(x) sum to 1 per feature and feed the
selection bound: replacing w by w~ = 0 (if H = 1) else w*(1-H) never
increases the weighted confusion, and the drop equals sum w*H^2.
Originally missing slots contribute to no count.

entropy_bits is the package's one entropy loop: in base |L| for H(x,z) and
the class-marginal H(D), in bits for the tree's gain ratio and MDL cuts.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce

from .data import MISSING, Dataset
from .errors import DataError, check_choice, check_number

log = logging.getLogger(__name__)

IOTAS = ("entropy", "infogain")
DATASET_ENTROPIES = ("value-sum", "class")


def left_sum(xs) -> float:
    """Floats added one by one, left to right, from 0.0: the same bits on
    every Python, where 3.12's builtin sum() compensates its rounding."""
    return reduce(operator.add, xs, 0.0)


def entropy_bits(counts, total=None, base=None) -> float:
    """Shannon entropy of counts over total (default: their left_sum) in bits, or
    in base base, each term by math.log(p) / math.log(base); 0 when total <= 0."""
    if total is None:
        total = left_sum(counts)
    if total <= 0:
        return 0.0
    log_base = None if base is None else math.log(base)
    log = math.log2 if base is None else lambda p: math.log(p) / log_base
    ent = 0.0
    for c in counts:
        p = c / total
        if p > 0:  # not c > 0: a tiny c over a large total underflows to 0
            ent -= p * log(p)
    return ent


def aligned_table(rows) -> str:
    """Left-aligned columns two spaces apart, one line per row of cells."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ValueStats:
    """Metrics for one (feature, value) pair with positive support."""

    feature: int
    value: int
    token: str
    support: float
    class_probs: tuple[float, ...]
    weight: float
    entropy: float
    info_gain: float
    norm_info_gain: float


@dataclass(frozen=True)
class MetricTable:
    """All ValueStats of one dataset plus its overall confusion H(D)."""

    fingerprint: str
    dataset_confusion: float
    per_feature: tuple[tuple[ValueStats, ...], ...]

    def entries(self):
        """All stats, features in index order, values in identifier order."""
        for group in self.per_feature:
            yield from group

    def format_table(self, iota: str = "entropy", epsilon: float = 0.5) -> str:
        rows = [("feature", "value", "support", "H", "IG", "IG_N", "p_remove")]
        for s in self.entries():
            rows.append(
                (
                    str(s.feature),
                    s.token,
                    format(s.support, "g"),
                    f"{s.entropy:.4f}",
                    f"{s.info_gain:.4f}",
                    f"{s.norm_info_gain:.4f}",
                    f"{removal_probability(s, iota, epsilon):.4f}",
                )
            )
        return aligned_table(rows)


def _value_entropy(counts, support: float, n_labels: int) -> float:
    """H of counts over support in base n_labels, clamped to [0, 1]; 0 with one label."""
    if n_labels < 2:
        return 0.0
    return min(1.0, max(0.0, entropy_bits(counts, support, n_labels)))


def class_keys(n_values: int, column, label_ids, n_labels: int) -> list[int]:
    """Per row, value id * n_labels + label, or MISSING where the slot is
    MISSING; column holds value ids below n_values. Each slot reads its row's
    label's table, so no one table recodes the column: each ends in MISSING."""
    ids = range(n_values)
    tables = [[z * n_labels + y for z in ids] + [MISSING] for y in range(n_labels)]
    return list(map(operator.getitem, map(tables.__getitem__, label_ids), column))


def class_counts(keys, items, unit: bool, n_labels: int):
    """Class weights per value id over items, by first appearance, and their sum.

    keys is a class_keys list; items are row ids of weight 1.0 when unit and
    (row id, weight) pairs otherwise. Where all items weigh 1.0 one Counter
    over their keys counts them, in first-appearance order, float(count)
    being a sum of count ones; fractional weights add up per key, and into
    the sum, in item order. Either way the floats are those of adding each
    item's weight to its (value, label) count in turn.
    """
    if unit:
        # items as many as the keys are all rows in order: count the keys as they are
        by_key = Counter(keys if len(items) == len(keys) else map(keys.__getitem__, items))
        known_w = float(len(items) - by_key.pop(MISSING, 0))
    else:
        by_key, known_w = {}, 0.0
        for i, w in items:
            k = keys[i]
            if k != MISSING:
                by_key[k] = by_key.get(k, 0.0) + w
                known_w += w
    val_counts: dict[int, list[float]] = {}
    for k, c in by_key.items():
        val_counts.setdefault(k // n_labels, [0.0] * n_labels)[k % n_labels] = float(c)
    return val_counts, known_w


def compute_stats(d: Dataset, dataset_entropy: str = "value-sum") -> MetricTable:
    """Count once over d and derive every per-value metric.

    Counts use instance weights. Requires at least one instance and one
    observed value overall.
    """
    check_choice("dataset_entropy mode", dataset_entropy, DATASET_ENTROPIES)
    if not d.instances:
        raise DataError("cannot compute stats of an empty dataset")
    n_labels = len(d.labels)

    rows = d.instances
    unit = rows.weights.count(1.0) == len(rows)
    items = range(len(rows)) if unit else list(enumerate(rows.weights))
    counts, feature_total = [], []
    for f, column in zip(d.features, rows.columns):
        keys = class_keys(len(f.values), column, rows.label_ids, n_labels)
        val_counts, known_w = class_counts(keys, items, unit, n_labels)
        counts.append(val_counts)
        feature_total.append(known_w)
    if not any(feature_total):
        raise DataError("dataset has no observed values")

    # First pass: supports, weights, entropies.
    raw: list[list[tuple[int, float, tuple[float, ...], float, float]]] = []
    for x in range(len(d.features)):
        group = []
        for z in sorted(counts[x]):
            per_class = counts[x][z]
            support = left_sum(per_class)
            if support <= 0:
                continue
            probs = tuple(c / support for c in per_class)
            ent = _value_entropy(per_class, support, n_labels)
            group.append((z, support, probs, support / feature_total[x], ent))
        raw.append(group)

    if dataset_entropy == "value-sum":
        h_dataset = left_sum(ent for group in raw for (_, _, _, _, ent) in group)
    else:
        label_counts = [0.0] * n_labels
        for label, w in zip(rows.label_ids, rows.weights):
            label_counts[label] += w
        h_dataset = _value_entropy(label_counts, left_sum(label_counts), n_labels)

    per_feature = []
    for x, group in enumerate(raw):
        gains = [max(0.0, h_dataset - ent) for (_, _, _, _, ent) in group]
        max_gain = max(gains, default=0.0)
        if group and max_gain == 0.0:
            log.warning(
                "feature %r: max information gain is 0, IG_N set to 1 for all values",
                d.features[x].name,
            )
        stats = []
        for (z, support, probs, weight, ent), gain in zip(group, gains):
            ig_n = 1.0 if max_gain == 0.0 else gain / max_gain
            stats.append(
                ValueStats(
                    feature=x,
                    value=z,
                    token=d.features[x].values[z],
                    support=support,
                    class_probs=probs,
                    weight=weight,
                    entropy=ent,
                    info_gain=gain,
                    norm_info_gain=ig_n,
                )
            )
        per_feature.append(tuple(stats))
    return MetricTable(d.fingerprint, h_dataset, tuple(per_feature))


def check_selection(iota: str, epsilon: float) -> None:
    """Raise ConfigError for an unknown metric iota or an epsilon outside (0, 1]."""
    check_choice("selection metric", iota, IOTAS)
    check_number("epsilon", epsilon, 0, 1, "(]")


def removal_probability(s: ValueStats, iota: str, epsilon: float) -> float:
    """Probability that value selection removes this value, clamped to 1."""
    check_selection(iota, epsilon)
    if iota == "entropy":
        return min(1.0, s.entropy / epsilon)
    return min(1.0, (1.0 - s.norm_info_gain) / epsilon)


def selection_weights(table: MetricTable) -> list[float]:
    """Expected post-selection weights w~ = 0 if H = 1 else w*(1-H)."""
    return [
        0.0 if s.entropy == 1.0 else s.weight * (1.0 - s.entropy)
        for s in table.entries()
    ]


def confusion_report(table: MetricTable, expected_after_weights) -> tuple[float, float]:
    """Weighted confusion before and after selection: (sum w*H, sum w~*H).

    expected_after_weights must align with table.entries(); the after
    term never exceeds the before term, and their difference is
    sum w*H^2.
    """
    stats = list(table.entries())
    weights = list(expected_after_weights)
    if len(stats) != len(weights):
        raise DataError(
            f"expected {len(stats)} weights, got {len(weights)}"
        )
    before = left_sum(s.weight * s.entropy for s in stats)
    after = left_sum(w * s.entropy for s, w in zip(stats, weights))
    return before, after
