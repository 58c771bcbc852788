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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .data import MISSING, Dataset
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

IOTAS = ("entropy", "infogain")
DATASET_ENTROPIES = ("value-sum", "class")


def entropy_bits(counts) -> float:
    """Shannon entropy in bits of a class-count vector; 0 when empty."""
    total = sum(counts)
    if total <= 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent -= p * math.log2(p)
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

    def get(self, feature: int, value: int) -> ValueStats | None:
        for s in self.per_feature[feature]:
            if s.value == value:
                return s
        return None

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


def _value_entropy(class_counts, support: float, n_labels: int) -> float:
    if n_labels < 2 or support <= 0:
        return 0.0
    log_base = math.log(n_labels)
    ent = 0.0
    for c in class_counts:
        if c > 0:
            p = c / support
            ent -= p * (math.log(p) / log_base)
    return min(1.0, max(0.0, ent))


def compute_stats(d: Dataset, dataset_entropy: str = "value-sum") -> MetricTable:
    """Count once over d and derive every per-value metric.

    Counts use instance weights. Requires at least one instance and one
    observed value overall.
    """
    if dataset_entropy not in DATASET_ENTROPIES:
        raise ConfigError(f"unknown dataset_entropy mode {dataset_entropy!r}")
    if not d.instances:
        raise DataError("cannot compute stats of an empty dataset")
    n_labels = len(d.labels)

    counts: list[dict[int, list[float]]] = [{} for _ in d.features]
    feature_total = [0.0] * len(d.features)
    for inst in d.instances:
        for x, z in enumerate(inst.slots):
            if z == MISSING:
                continue
            per_class = counts[x].setdefault(z, [0.0] * n_labels)
            per_class[inst.label] += inst.weight
            feature_total[x] += inst.weight
    if not any(feature_total):
        raise DataError("dataset has no observed values")

    # First pass: supports, weights, entropies.
    raw: list[list[tuple[int, float, tuple[float, ...], float, float]]] = []
    for x in range(len(d.features)):
        group = []
        for z in sorted(counts[x]):
            per_class = counts[x][z]
            support = sum(per_class)
            if support <= 0:
                continue
            probs = tuple(c / support for c in per_class)
            ent = _value_entropy(per_class, support, n_labels)
            group.append((z, support, probs, support / feature_total[x], ent))
        raw.append(group)

    if dataset_entropy == "value-sum":
        h_dataset = sum(ent for group in raw for (_, _, _, _, ent) in group)
    else:
        label_counts = [0.0] * n_labels
        for inst in d.instances:
            label_counts[inst.label] += inst.weight
        h_dataset = _value_entropy(label_counts, sum(label_counts), n_labels)

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


def removal_probability(s: ValueStats, iota: str, epsilon: float) -> float:
    """Probability that value selection removes this value, clamped to 1."""
    if iota not in IOTAS:
        raise ConfigError(f"unknown selection metric {iota!r}")
    if not 0.0 < epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1], got {epsilon}")
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
    before = sum(s.weight * s.entropy for s in stats)
    after = sum(w * s.entropy for s, w in zip(stats, weights))
    return before, after
