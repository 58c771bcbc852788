"""Probabilistic value selection filters.

Both filters consume one random stream seeded from cfg.seed, drawn in a
documented fixed order so runs are reproducible:

* pvs draws one uniform per observed (feature, value) pair, features in
  index order and values in identifier order. The value is removed
  globally when the draw falls below its removal probability; every slot
  holding it becomes MISSING and it leaves the feature's value set.
  Instances left with no observed slot are deleted.

* pvs_plus walks instances in index order and, within an instance,
  non-missing slots in feature index order, drawing one uniform r' per
  slot (always, even when the slot's value has no stats entry). The slot
  is cleared when H > r' * epsilon (entropy metric) or when
  IG_N < r' * epsilon (infogain metric); both comparisons are strict.
  After the slots, the instance's missing rate (missing slots, the
  originally missing ones included, over the feature count) is compared
  against one fresh uniform and the instance is deleted when the rate is
  strictly greater.

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

from .data import MISSING, Dataset, Feature, Instance
from .errors import ConfigError, DataError
from .metrics import IOTAS, MetricTable, removal_probability


@dataclass(frozen=True)
class VSConfig:
    """The knobs both filters read; which filter runs is the caller's choice."""

    iota: str = "entropy"
    epsilon: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.iota not in IOTAS:
            raise ConfigError(f"unknown selection metric {self.iota!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon}")


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
            for x, row in enumerate(self.removed_value_mask):
                for z, hit in enumerate(row):
                    if hit:
                        lines.append(
                            f"  {original.features[x].name} = "
                            f"{original.features[x].values[z]!r}"
                        )
        else:
            lines.append("removed slots:")
            for i, row in enumerate(self.removed_value_mask):
                hits = [original.features[x].name for x, hit in enumerate(row) if hit]
                if hits:
                    lines.append(f"  instance {i}: " + " ".join(hits))
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


def _removed_features(filtered: Dataset) -> tuple[int, ...]:
    return tuple(
        x
        for x in range(len(filtered.features))
        if all(inst.slots[x] == MISSING for inst in filtered.instances)
    )


def pvs(d: Dataset, cfg: VSConfig, stats: MetricTable) -> FilterOutcome:
    """Global per-value removal: one draw per observed (feature, value)."""
    _check_stats(d, stats)
    rng = random.Random(cfg.seed)
    removed_ids: list[set[int]] = [set() for _ in d.features]
    for x in range(len(d.features)):
        for s in stats.per_feature[x]:
            r = rng.random()
            if r < removal_probability(s, cfg.iota, cfg.epsilon):
                removed_ids[x].add(s.value)

    mask = tuple(
        tuple(z in removed_ids[x] for z in range(len(f.values)))
        for x, f in enumerate(d.features)
    )
    new_features = []
    remap: list[dict[int, int]] = []
    for x, f in enumerate(d.features):
        keep = [z for z in range(len(f.values)) if z not in removed_ids[x]]
        remap.append({z: i for i, z in enumerate(keep)})
        new_features.append(Feature(f.name, tuple(f.values[z] for z in keep), f.kind))

    survivors = []
    removed_instances = []
    for i, inst in enumerate(d.instances):
        slots = tuple(
            MISSING if z == MISSING or z in removed_ids[x] else remap[x][z]
            for x, z in enumerate(inst.slots)
        )
        if d.features and all(z == MISSING for z in slots):
            removed_instances.append(i)
        else:
            survivors.append(Instance(slots, inst.label, inst.weight))

    filtered = Dataset(tuple(new_features), tuple(survivors), d.labels, d.name)
    return FilterOutcome(
        filtered=filtered,
        removed_value_mask=mask,
        removed_instances=tuple(removed_instances),
        removed_features=_removed_features(filtered),
        stats=stats,
        mode="pvs",
    )


def pvs_plus(d: Dataset, cfg: VSConfig, stats: MetricTable) -> FilterOutcome:
    """Per-instance slot removal followed by probabilistic instance deletion."""
    _check_stats(d, stats)
    rng = random.Random(cfg.seed)
    n_feat = len(d.features)
    infogain = cfg.iota == "infogain"
    eps = cfg.epsilon

    mask_rows = []
    survivors = []
    removed_instances = []
    for i, inst in enumerate(d.instances):
        row = [False] * n_feat
        slots = list(inst.slots)
        for x, z in enumerate(inst.slots):
            if z == MISSING:
                continue
            r = rng.random()
            s = stats.get(x, z)
            if s is None:
                continue
            if infogain:
                hit = s.norm_info_gain < r * eps
            else:
                hit = s.entropy > r * eps
            if hit:
                slots[x] = MISSING
                row[x] = True
        mask_rows.append(tuple(row))
        if n_feat:
            miss_rate = sum(1 for z in slots if z == MISSING) / n_feat
            r = rng.random()
            if miss_rate > r:
                removed_instances.append(i)
                continue
        survivors.append(Instance(tuple(slots), inst.label, inst.weight))

    filtered = d.with_instances(survivors)
    return FilterOutcome(
        filtered=filtered,
        removed_value_mask=tuple(mask_rows),
        removed_instances=tuple(removed_instances),
        removed_features=_removed_features(filtered),
        stats=stats,
        mode="pvs_plus",
    )
