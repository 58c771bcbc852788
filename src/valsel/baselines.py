"""Reference filters that value selection is compared against.

reservoir_select keeps ceil(fraction * |I|) instances chosen uniformly
by Vitter's Algorithm R in one pass; misclassified_filter drops every
instance the learner gets wrong out-of-fold under cross-validation;
drop_columns removes whole features by name; random_value_removal blanks
non-missing slots independently at a fixed rate. All return plain
datasets and draw any randomness from an explicit seed.
"""

from __future__ import annotations

import logging
import math
import random

from .data import MISSING, Dataset, Instance
from .errors import ConfigError

log = logging.getLogger(__name__)

#: Fraction of instances a reservoir keeps by default (1 in 20).
RESERVOIR_FRACTION = 0.05


def reservoir_select(d: Dataset, fraction: float = RESERVOIR_FRACTION, seed: int = 0) -> Dataset:
    """Uniform sample of ceil(fraction * |I|) instances, Algorithm R.

    The reservoir is filled with the first k instances; each later
    instance i replaces a uniformly drawn slot j of range(i + 1) when
    j < k. With fraction = 1 the input comes back unchanged.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must lie in (0, 1], got {fraction}")
    n = len(d.instances)
    k = math.ceil(fraction * n)
    reservoir = list(d.instances[:k])
    rng = random.Random(seed)
    for i in range(k, n):
        j = rng.randint(0, i)
        if j < k:
            reservoir[j] = d.instances[i]
    return d.with_instances(reservoir)


def misclassified_filter(d: Dataset, learner=None, folds: int = 10, seed: int = 0) -> Dataset:
    """Keep only instances the learner classifies correctly out-of-fold."""
    if learner is None:
        from .classifiers import LearnerSpec

        learner = LearnerSpec()
    # imported here: evaluation builds on the baselines module; the
    # split rejects folds < 2 and folds > |I|
    from .evaluate import fold_splits

    rows = d.instances
    keep = []
    for _, train, test in fold_splits(d, folds, seed):
        model = learner.train(d.with_instances([rows[i] for i in train]))
        for i in test:
            label, _ = model.predict(rows[i], d)
            if label == d.labels[rows[i].label]:
                keep.append(i)
    keep.sort()
    if not keep:
        log.warning("misclassified filter removed every instance")
    return d.with_instances([rows[i] for i in keep])


def drop_columns(d: Dataset, names) -> Dataset:
    """Remove the named features; a dataset of just labels is still valid."""
    names = list(names)
    have = {f.name for f in d.features}
    for name in names:
        if name not in have:
            raise ConfigError(f"no feature named {name!r}")
    dead = set(names)
    keep = [x for x, f in enumerate(d.features) if f.name not in dead]
    features = tuple(d.features[x] for x in keep)
    instances = tuple(
        Instance(tuple(inst.slots[x] for x in keep), inst.label, inst.weight)
        for inst in d.instances
    )
    return Dataset(features, instances, d.labels, d.name)


def random_value_removal(d: Dataset, rate: float, seed: int = 0) -> Dataset:
    """Blank each non-missing slot with probability rate, then prune
    instances left with no observed value.

    Draws run over instances in index order and slots in feature order,
    one per originally non-missing slot.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"rate must lie in [0, 1], got {rate}")
    rng = random.Random(seed)
    survivors = []
    for inst in d.instances:
        slots = []
        for z in inst.slots:
            if z != MISSING and rng.random() < rate:
                z = MISSING
            slots.append(z)
        if d.features and all(z == MISSING for z in slots):
            continue
        survivors.append(Instance(tuple(slots), inst.label, inst.weight))
    return d.with_instances(survivors)
