"""Probabilistic value selection filters.

Both filters consume one random stream seeded from cfg.seed, drawn in a
documented fixed order so runs are reproducible:

* pvs draws one uniform per observed (feature, value) pair, features in
  index order and values in identifier order. The value is removed
  globally when the draw falls below its removal probability; every slot
  holding it becomes MISSING and it leaves the feature's value set.
  Instances left with no observed slot are deleted (data.empty_rows).

* pvs_plus walks instances in index order and, within an instance,
  non-missing slots in feature index order, drawing one uniform r' per
  slot (always, even when the slot's value has no stats entry). The slot
  is cleared when H > r' * epsilon (entropy metric) or when
  IG_N < r' * epsilon (infogain metric); both comparisons are strict.
  Right after its slots one more uniform is drawn for the instance; once
  all are walked, its missing rate (missing slots, the originally missing
  ones included, over the feature count) is compared with that draw and
  the instance is deleted when the rate is strictly greater. So an
  instance with no observed slot left is always deleted.

For the entropy metric the per-slot rule removes with probability
P(H > r' * eps) = min(1, H / eps), exactly the pvs removal probability.
For the infogain metric the two methods agree at the endpoints (IG_N = 1
is never removed, IG_N = 0 is removed with certainty at eps <= 1) but
not in between unless eps = 1, since P(IG_N < r' * eps) = 1 - IG_N / eps
clamped at 0 while the global rule uses (1 - IG_N) / eps clamped at 1;
each filter follows its own defining rule.

Features whose observed values are all gone afterwards are reported in
removed_features, which makes the filters subsume feature selection;
instance deletion likewise subsumes instance selection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, count
from operator import ne

from .data import MISSING, Dataset, Feature, empty_rows, recode
from .errors import DataError, check_count
from .metrics import MetricTable, check_selection, removal_probability


@dataclass(frozen=True)
class VSConfig:
    """The knobs both filters read; which filter runs is the caller's choice."""

    iota: str = "entropy"
    epsilon: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_selection(self.iota, self.epsilon)
        check_count("seed", self.seed)


@dataclass(frozen=True)
class FilterOutcome:
    """A filtered dataset plus the audit trail of what was removed.

    removed_value_mask is indexed [feature][value identifier] for pvs
    and [original instance index][feature] for pvs_plus; deleted
    instances keep their mask row, which records the slot removals that
    happened before the deletion draw.
    """

    filtered: Dataset
    removed_value_mask: tuple
    removed_instances: tuple[int, ...]
    removed_features: tuple[int, ...]
    stats: MetricTable
    mode: str

    def audit_text(self, original: Dataset) -> str:
        lines = [f"mode: {self.mode}"]
        if self.mode == "pvs":
            lines.append("removed values:")
            for f, row in zip(original.features, self.removed_value_mask):
                lines += [f"  {f.name} = {v!r}" for v in compress(f.values, row)]
        else:
            lines.append("removed slots:")
            names = [f.name for f in original.features]
            mask = self.removed_value_mask
            # Instances share few distinct mask rows: join each one's names once.
            joined = {row: " ".join(compress(names, row)) if True in row else None
                      for row in dict.fromkeys(mask)}
            lines += [f"  instance {i}: {text}"
                      for i, text in enumerate(map(joined.__getitem__, mask)) if text is not None]
        lines.append(
            "removed instances: " + " ".join(str(i) for i in self.removed_instances)
        )
        lines.append(
            "removed features: "
            + " ".join(original.features[x].name for x in self.removed_features)
        )
        return "\n".join(lines) + "\n"


def _check_stats(d: Dataset, stats: MetricTable) -> None:
    if stats.fingerprint != d.fingerprint:
        raise DataError("metric table was computed on a different dataset")


def _outcome(d: Dataset, stats: MetricTable, mode: str, mask: tuple, columns, drop,
             features=None) -> FilterOutcome:
    """The outcome of a filter that left columns over features (default d's)
    and deleted the rows at the positions in drop. Features with no observed
    slot left (every feature, when no row is) are listed as removed."""
    filtered = d._derived(columns, features, drop)
    n = len(filtered.instances)
    removed_features = tuple(x for x, col in enumerate(filtered.instances.columns)
                             if col.count(MISSING) == n)
    return FilterOutcome(filtered, mask, tuple(drop), removed_features, stats, mode)


def pvs(d: Dataset, cfg: VSConfig, stats: MetricTable) -> FilterOutcome:
    """Global per-value removal: one draw per observed (feature, value)."""
    _check_stats(d, stats)
    rng = random.Random(cfg.seed)
    removed = [[False] * len(f.values) for f in d.features]
    for x in range(len(d.features)):
        for s in stats.per_feature[x]:
            r = rng.random()
            if r < removal_probability(s, cfg.iota, cfg.epsilon):
                removed[x][s.value] = True
    mask = tuple(map(tuple, removed))

    # Per feature, the new id of each old one: kept values are numbered in
    # order, and removed ones become MISSING.
    features, columns = [], []
    for f, gone, col in zip(d.features, mask, d.instances.columns):
        new_ids = count()
        columns.append(recode(col, [MISSING if hit else next(new_ids) for hit in gone]))
        features.append(Feature(f.name, tuple(v for v, hit in zip(f.values, gone) if not hit),
                                f.kind))
    return _outcome(d, stats, "pvs", mask, columns, empty_rows(columns), features)


def pvs_plus(d: Dataset, cfg: VSConfig, stats: MetricTable) -> FilterOutcome:
    """Per-instance slot removal followed by probabilistic instance deletion."""
    _check_stats(d, stats)
    rng = random.Random(cfg.seed)
    infogain = cfg.iota == "infogain"
    eps = cfg.epsilon
    # Per feature, the metric the slot rule reads by value id; None: no stats entry.
    metric = [[None] * len(f.values) for f in d.features]
    for x, group in enumerate(stats.per_feature):
        for s in group:
            metric[x][s.value] = s.norm_info_gain if infogain else s.entropy

    old = d.instances.columns
    columns = [list(col) for col in old]
    deletion_draws = []
    # With no feature there is no row to walk: nothing is drawn or deleted.
    for i, slots in enumerate(zip(*old)):
        for x, z in enumerate(slots):
            if z == MISSING:
                continue
            r = rng.random()
            m = metric[x][z]
            if m is not None and ((m < r * eps) if infogain else (m > r * eps)):
                columns[x][i] = MISSING
        deletion_draws.append(rng.random())

    # A slot was cleared where its column changed; the mask holds one row per instance.
    cleared = [map(ne, before, after) for before, after in zip(old, columns)]
    mask = tuple(zip(*cleared)) if cleared else ((),) * len(d.instances)
    removed_instances = [i for i, (row, r) in enumerate(zip(zip(*columns), deletion_draws))
                         if row.count(MISSING) / len(columns) > r]
    return _outcome(d, stats, "pvs_plus", mask, columns, removed_instances)
