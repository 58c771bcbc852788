"""Reference filters: reservoir, misclassified, drop-columns, random blanking."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from valsel import (
    FILTERS,
    MISSING,
    ConfigError,
    DataError,
    ExperimentConfig,
    LearnerSpec,
    VSConfig,
    compute_stats,
    dataset_from_rows,
    drop_columns,
    filter_dataset,
    misclassified_filter,
    pvs,
    pvs_plus,
    random_value_removal,
    reservoir_select,
)

from conftest import random_dataset, separable_dataset


def test_config_validation():
    d = random_dataset(0, n=30)

    def run(method, **knobs):
        return filter_dataset(d, ExperimentConfig(method=method, **knobs), 0, None)

    with pytest.raises(ConfigError):
        ExperimentConfig(method="psychic")
    with pytest.raises(ConfigError):
        run("reservoir", fraction=0.0)
    with pytest.raises(ConfigError):
        run("reservoir", fraction=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(method="misclassified", folds=1)
    with pytest.raises(ConfigError):
        run("random_value", rate=-0.1)
    assert ExperimentConfig(method="reservoir").fraction == 0.05
    # a knob is checked only by the method that reads it
    assert run("reservoir", fraction=0.5, rate=5.0).instances
    assert run("random_value", rate=0.5, fraction=0.0).instances


def test_reservoir_size_is_ceil_of_fraction():
    d = random_dataset(0, n=100)
    assert len(reservoir_select(d, 0.05, seed=1).instances) == 5
    assert len(reservoir_select(d, 0.051, seed=1).instances) == 6
    d7 = random_dataset(1, n=7)
    assert len(reservoir_select(d7, 0.5, seed=1).instances) == 4


def test_reservoir_identity_at_full_fraction():
    d = random_dataset(2, n=30)
    out = reservoir_select(d, 1.0, seed=9)
    assert out == d
    dist = Counter(i.label for i in out.instances)
    assert dist == Counter(i.label for i in d.instances)


def test_reservoir_draws_a_subset_deterministically():
    d = random_dataset(3, n=50)
    a = reservoir_select(d, 0.2, seed=4)
    b = reservoir_select(d, 0.2, seed=4)
    assert a == b
    pool = Counter(i.slots for i in d.instances)
    picked = Counter(i.slots for i in a.instances)
    assert all(picked[s] <= pool[s] for s in picked)
    c = reservoir_select(d, 0.2, seed=5)
    assert c != a
    with pytest.raises(ConfigError):
        reservoir_select(d, 0.0)


def test_misclassified_keeps_learnable_instances():
    d = separable_dataset(0, n=40)
    out = misclassified_filter(d, LearnerSpec(), folds=4, seed=0)
    assert out == d  # fully separable: nothing is misclassified


def test_misclassified_drops_contradicting_minority():
    rows = [["x", "p"]] * 10 + [["x", "q"]] * 10 + [["y", "p"]] * 10
    labels = ["0"] * 10 + ["0"] * 9 + ["1"] + ["1"] * 10
    d = dataset_from_rows("noisy", ["a", "b"], rows, labels)
    out = misclassified_filter(d, LearnerSpec(), folds=5, seed=1)
    # the lone label-1 instance among ("x","q") rows cannot be learned
    assert len(out.instances) == len(d.instances) - 1
    kept = Counter((i.slots, i.label) for i in out.instances)
    assert kept[((0, 1), 1)] == 0
    # original order is preserved
    originals = [i for i in d.instances if (i.slots, i.label) != ((0, 1), 1)]
    assert list(out.instances) == originals


def test_misclassified_validates_folds():
    d = separable_dataset(0, n=6)
    with pytest.raises(DataError):
        misclassified_filter(d, LearnerSpec(), folds=7)
    with pytest.raises(ConfigError):
        misclassified_filter(d, LearnerSpec(), folds=1)


def test_drop_columns_removes_named_features(samples):
    out = drop_columns(samples, ["f2", "f4"])
    assert [f.name for f in out.features] == ["f1", "f3"]
    assert len(out.instances) == len(samples.instances)
    for before, after in zip(samples.instances, out.instances):
        assert after.slots == (before.slots[0], before.slots[2])
        assert after.label == before.label
    with pytest.raises(ConfigError):
        drop_columns(samples, ["nope"])
    all_gone = drop_columns(samples, [f.name for f in samples.features])
    assert all_gone.features == ()
    assert len(all_gone.instances) == 5


def test_random_value_removal_rates():
    d = random_dataset(6, n=60, missing_rate=0.0)
    assert random_value_removal(d, 0.0, seed=1) == d
    gone = random_value_removal(d, 1.0, seed=1)
    assert gone.instances == ()
    out = random_value_removal(d, 0.4, seed=1)
    assert out == random_value_removal(d, 0.4, seed=1)
    blanked = sum(
        1 for inst in out.instances for z in inst.slots if z == MISSING
    )
    total = len(d.instances) * len(d.features)
    assert 0 < blanked < total
    with pytest.raises(ConfigError):
        random_value_removal(d, 1.1)


def test_random_value_removal_prunes_empty_instances():
    d = random_dataset(7, n=200, n_features=2, missing_rate=0.0)
    out = random_value_removal(d, 0.9, seed=3)
    for inst in out.instances:
        assert any(z != MISSING for z in inst.slots)


def test_filters_registry_dispatches():
    d = separable_dataset(1, n=40)
    stats = compute_stats(d)

    def run(method, seed, **knobs):
        cfg = ExperimentConfig(method=method, **knobs)
        return filter_dataset(d, cfg, seed, stats if FILTERS[method].needs_stats else None)

    assert [m for m, f in FILTERS.items() if f.needs_stats] == ["pvs", "pvs_plus"]
    assert run("none", 0) == d
    assert run("pvs", 3, epsilon=0.7) == pvs(d, VSConfig(epsilon=0.7, seed=3), stats).filtered
    assert run("pvs_plus", 3, iota="infogain") == (
        pvs_plus(d, VSConfig("infogain", seed=3), stats).filtered
    )
    assert run("reservoir", 2, fraction=0.1) == reservoir_select(d, 0.1, seed=2)
    assert run("drop_columns", 0, columns=("b",)) == drop_columns(d, ["b"])
    assert run("random_value", 5, rate=0.3) == random_value_removal(d, 0.3, seed=5)
    assert run("misclassified", 0, folds=4) == misclassified_filter(d, None, folds=4, seed=0)
    assert sorted(FILTERS) == sorted(
        ["none", "pvs", "pvs_plus", "reservoir", "misclassified", "drop_columns", "random_value"]
    )


def test_reservoir_statistics_are_plausible():
    # every instance distinct; frequencies over repeated draws are roughly flat
    d = random_dataset(9, n=10, n_features=2, n_values=10, missing_rate=0.0)
    counts = Counter()
    trials = 2000
    for seed in range(trials):
        out = reservoir_select(d, 0.3, seed=seed)
        for inst in out.instances:
            counts[inst.slots] += 1
    k = math.ceil(0.3 * 10)
    expect = trials * k / 10
    for inst in d.instances:
        assert abs(counts[inst.slots] - expect) < 0.15 * expect
