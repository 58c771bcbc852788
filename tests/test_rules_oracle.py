"""Differential test: the bitset rule learner against the row-based original.

The functions _positional_split and train_rules below are a verbatim copy
of the row-at-a-time sequential-covering learner that the bitset version
in valsel.classifiers replaced. Both must give the same rule text and the
same distribution tuples, to the bit, on seeded random data with unit,
dyadic and arbitrary fractional weights.
"""

from __future__ import annotations

import math
import random

import pytest

from valsel import classifiers, dataset_from_rows
from valsel.classifiers import (
    RULES_PRUNE_FRACTION,
    Rule,
    RuleModel,
    _argmax_low,
)
from valsel.data import MISSING, Dataset
from valsel.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# Reference oracle: the row-based learner, verbatim
# ---------------------------------------------------------------------------


def _positional_split(items, labels, prune_fraction):
    """Deterministic stratified grow/prune partition preserving order.

    Within each class, every prune_fraction-th instance goes to the
    prune side, so both sides keep the class mix without any randomness.
    """
    grow, prune = [], []
    acc: dict[int, float] = {}
    for it in items:
        y = labels[it]
        acc[y] = acc.get(y, 0.0) + prune_fraction
        if acc[y] >= 1.0 - 1e-9:
            acc[y] -= 1.0
            prune.append(it)
        else:
            grow.append(it)
    return grow, prune


def train_rules(d: Dataset, prune_fraction: float = RULES_PRUNE_FRACTION) -> RuleModel:
    """Learn an ordered rule list by sequential covering."""
    if not 0.0 <= prune_fraction < 1.0:
        raise ConfigError(f"prune_fraction must lie in [0, 1), got {prune_fraction}")
    if not d.instances:
        raise DataError("cannot learn rules from an empty dataset")

    n_labels = len(d.labels)
    ys = [inst.label for inst in d.instances]
    ws = [inst.weight for inst in d.instances]
    cols = [d.column(x) for x in range(len(d.features))]

    def covers(conds, i) -> bool:
        return all(cols[x][i] == z for x, z in conds)

    def pn(conds, idxs, target):
        p = n = 0.0
        for i in idxs:
            if covers(conds, i):
                if ys[i] == target:
                    p += ws[i]
                else:
                    n += ws[i]
        return p, n

    def grow_rule(grow_idx, target):
        conds: list[tuple[int, int]] = []
        covered = list(grow_idx)
        p0 = sum(ws[i] for i in covered if ys[i] == target)
        n0 = sum(ws[i] for i in covered if ys[i] != target)
        if p0 <= 0:
            return None
        used: set[int] = set()
        while n0 > 0:
            cand: dict[tuple[int, int], list[float]] = {}
            for i in covered:
                for x in range(len(cols)):
                    if x in used:
                        continue
                    z = cols[x][i]
                    if z == MISSING:
                        continue
                    pq = cand.setdefault((x, z), [0.0, 0.0])
                    pq[0 if ys[i] == target else 1] += ws[i]
            best = None
            for (x, z), (p1, q1) in sorted(cand.items()):
                if p1 <= 0:
                    continue
                gain = p1 * (
                    math.log2(p1 / (p1 + q1)) - math.log2(p0 / (p0 + n0))
                )
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, x, z, p1, q1)
            if best is None or best[0] <= 1e-12:
                break
            _, x, z, p0, n0 = best
            conds.append((x, z))
            used.add(x)
            covered = [i for i in covered if cols[x][i] == z]
        return conds or None

    def prune_rule(conds, prune_idx, target):
        if not prune_idx or len(conds) <= 1:
            return conds
        def worth(cs):
            p, n = pn(cs, prune_idx, target)
            if p + n <= 0:
                return -1.0
            return (p - n) / (p + n)
        best_len, best_v = len(conds), worth(conds)
        for keep in range(len(conds) - 1, 0, -1):
            v = worth(conds[:keep])
            if v > best_v + 1e-12:
                best_len, best_v = keep, v
        return conds[:best_len]

    label_counts = [0.0] * n_labels
    for y, w in zip(ys, ws):
        label_counts[y] += w
    order = sorted(range(n_labels), key=lambda l: (label_counts[l], l))

    remaining = list(range(len(d.instances)))
    rules: list[Rule] = []
    for target in order[:-1]:
        while any(ys[i] == target for i in remaining):
            grow_idx, prune_idx = _positional_split(remaining, ys, prune_fraction)
            conds = grow_rule(grow_idx, target)
            if conds is None:
                break
            conds = prune_rule(conds, prune_idx, target)
            check_idx = prune_idx or grow_idx
            p, n = pn(conds, check_idx, target)
            rule_acc = p / (p + n) if p + n > 0 else 0.0
            base = sum(ws[i] for i in check_idx if ys[i] == target)
            total = sum(ws[i] for i in check_idx)
            default_acc = base / total if total > 0 else 0.0
            if rule_acc <= default_acc:
                break
            dist_counts = [0.0] * n_labels
            for i in remaining:
                if covers(conds, i):
                    dist_counts[ys[i]] += ws[i]
            total_cov = sum(dist_counts)
            dist = tuple(
                (c / total_cov if total_cov > 0 else 1.0 / n_labels)
                for c in dist_counts
            )
            rules.append(
                Rule(
                    tuple(
                        (d.features[x].name, d.features[x].values[z])
                        for x, z in conds
                    ),
                    target,
                    dist,
                )
            )
            remaining = [i for i in remaining if not covers(conds, i)]

    tail_counts = [0.0] * n_labels
    for i in remaining:
        tail_counts[ys[i]] += ws[i]
    if sum(tail_counts) <= 0:
        tail_counts = label_counts
    default_label = _argmax_low(tail_counts)
    total_tail = sum(tail_counts)
    default_dist = tuple(
        (c / total_tail if total_tail > 0 else 1.0 / n_labels) for c in tail_counts
    )
    rules.append(Rule((), default_label, default_dist))
    return RuleModel(tuple(rules), d.labels, d.features)



# ---------------------------------------------------------------------------
# Differential cases
# ---------------------------------------------------------------------------


WEIGHTINGS = ("unit", "dyadic", "fractional")
PRUNE_FRACTIONS = (0.0, 1.0 / 3.0, 0.5)


def random_weighted_dataset(seed: int, weighting: str) -> Dataset:
    """1-400 rows, 1-6 features, 1-4 labels, about 10% missing slots.

    Labels follow feature f0 most of the time, so real rules get learned.
    The label domain is declared, so some classes may have no rows.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    n_features = rng.randint(1, 6)
    n_labels = rng.randint(1, 4)
    n_values = [rng.randint(1, 5) for _ in range(n_features)]
    rows, labels = [], []
    for _ in range(n):
        row = [
            None if rng.random() < 0.1 else f"v{rng.randrange(n_values[x])}"
            for x in range(n_features)
        ]
        rows.append(row)
        if row[0] is not None and rng.random() < 0.7:
            labels.append(f"c{int(row[0][1:]) % n_labels}")
        else:
            labels.append(f"c{rng.randrange(n_labels)}")
    if weighting == "unit":
        weights = None
    elif weighting == "dyadic":
        weights = [rng.choice((0.25, 0.5, 2.0)) for _ in range(n)]
    else:
        weights = [rng.random() * 3 for _ in range(n)]
    return dataset_from_rows(
        f"oracle{seed}",
        [f"f{x}" for x in range(n_features)],
        rows,
        labels,
        label_domain=tuple(f"c{c}" for c in range(n_labels)),
        weights=weights,
    )


def assert_same_rules(d: Dataset, prune_fraction: float) -> None:
    want = train_rules(d, prune_fraction)
    got = classifiers.train_rules(d, prune_fraction)
    assert got.to_text() == want.to_text()
    assert [r.distribution for r in got.rules] == [r.distribution for r in want.rules]
    assert got == want


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("prune_fraction", PRUNE_FRACTIONS)
def test_bitset_rules_match_row_based_oracle(weighting, prune_fraction):
    for seed in range(20):
        assert_same_rules(random_weighted_dataset(seed, weighting), prune_fraction)


def test_oracle_cases_learn_real_rule_lists():
    # Guard against a vacuous comparison: most cases must learn rules
    # beyond the default one.
    sizes = [
        train_rules(random_weighted_dataset(seed, "unit")).size for seed in range(20)
    ]
    assert sum(size > 1 for size in sizes) >= 10
    assert max(sizes) >= 4


def test_split_keeps_the_row_based_partition():
    # Every prefix of every class goes through the same per-class
    # accumulator, whatever rows have been covered before.
    rng = random.Random(5)
    for prune_fraction in PRUNE_FRACTIONS + (0.37, 0.9):
        ys = [rng.randrange(3) for _ in range(300)]
        ranks = classifiers._prune_ranks(len(ys), prune_fraction)
        class_bits = [
            sum(1 << i for i, y in enumerate(ys) if y == c) for c in range(3)
        ]
        for _ in range(10):
            rows = [i for i in range(len(ys)) if rng.random() < 0.6]
            mask = sum(1 << i for i in rows)
            grow, prune = _positional_split(rows, ys, prune_fraction)
            got = classifiers._positional_split(mask, class_bits, ranks)
            assert got == (sum(1 << i for i in grow), sum(1 << i for i in prune))
