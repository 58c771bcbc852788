"""Reference filters that value selection is compared against.

reservoir_select keeps ceil(fraction * |I|) instances chosen uniformly
by Vitter's Algorithm R in one pass; drop_columns removes whole features
by name; random_value_removal blanks non-missing slots independently at
a fixed rate. All return plain datasets and draw any randomness from an
explicit seed. The misclassified filter, itself a cross-validation of
the learner, lives in evaluate.
"""

from __future__ import annotations

import math
import random

from .data import MISSING, Dataset, empty_rows
from .errors import ConfigError, check_count, check_names, check_number

#: Fraction of instances a reservoir keeps by default (1 in 20).
RESERVOIR_FRACTION = 0.05


def reservoir_select(d: Dataset, fraction: float = RESERVOIR_FRACTION, seed: int = 0) -> Dataset:
    """Uniform sample of ceil(fraction * |I|) instances, Algorithm R.

    The reservoir is filled with the first k instances; each later
    instance i replaces a uniformly drawn slot j of range(i + 1) when
    j < k. With fraction = 1 the input comes back unchanged.
    """
    check_number("fraction", fraction, 0, 1, "(]")
    check_count("seed", seed)
    n = len(d.instances)
    k = math.ceil(fraction * n)
    reservoir = list(range(k))
    rng = random.Random(seed)
    for i in range(k, n):
        j = rng.randint(0, i)
        if j < k:
            reservoir[j] = i
    return d.take(reservoir)


def drop_columns(d: Dataset, names) -> Dataset:
    """Remove the named features; a dataset of just labels is still valid."""
    names = check_names("columns", names)
    have = {f.name for f in d.features}
    for name in names:
        if name not in have:
            raise ConfigError(f"no feature named {name!r}")
    dead = set(names)
    keep = [x for x, f in enumerate(d.features) if f.name not in dead]
    return d._derived([d.column(x) for x in keep], [d.features[x] for x in keep])


def random_value_removal(d: Dataset, rate: float, seed: int = 0) -> Dataset:
    """Blank each non-missing slot with probability rate, then prune
    instances left with no observed value.

    Draws run over instances in index order and slots in feature order,
    one per originally non-missing slot.
    """
    check_number("rate", rate, 0, 1, "[]")
    check_count("seed", seed)
    rng = random.Random(seed)
    columns = [list(col) for col in d.instances.columns]
    for i, slots in enumerate(d.instances.slot_tuples()):
        for x, z in enumerate(slots):
            if z != MISSING and rng.random() < rate:
                columns[x][i] = MISSING
    return d._derived(columns, drop=empty_rows(columns))
