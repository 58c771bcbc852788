"""The paper's claims, checked on generated data whose informative features are known.

Placement: value selection removes by class purity, so the slots it
clears should fall on the features that do not carry the label more
often than those features' share of the data would give.

The config was written down before the first run, and a case that fails
is reported in the README, not mended by changing it:
conftest.separable_dataset(seed, n=200, noise=0.2), where feature a
carries the label and b and c are distractors; seeds 0-9; pvs and
pvs_plus; entropy iota, epsilon 1, filter seed 0; the metric table of
compute_stats(d) at its default dataset_entropy.
"""

from __future__ import annotations

import pytest

from valsel import MISSING, VSConfig, compute_stats, pvs, pvs_plus, removal_counts

from conftest import separable_dataset

SEEDS = range(10)
DISTRACTORS = ("b", "c")
CONFIG = VSConfig(iota="entropy", epsilon=1.0, seed=0)


def distractor_share(d, per_feature) -> float:
    """The share of per_feature's total that falls on the distractors."""
    on_distractors = sum(k for f, k in zip(d.features, per_feature) if f.name in DISTRACTORS)
    return on_distractors / sum(per_feature)


@pytest.mark.parametrize("filt", [pvs, pvs_plus], ids=["pvs", "pvs_plus"])
@pytest.mark.parametrize("seed", SEEDS)
def test_guided_removal_falls_on_the_distractors(seed, filt):
    d = separable_dataset(seed, n=200, noise=0.2)
    observed = [len(col) - col.count(MISSING) for col in d.instances.columns]
    cleared = removal_counts(d, filt(d, CONFIG, compute_stats(d)).filtered).slots_cleared
    assert distractor_share(d, cleared) > distractor_share(d, observed)
