"""Behavior of the global and per-instance value filters."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import valsel.selection as sel
from valsel.data import Dataset, Feature, Instance
from valsel.errors import check_number
from valsel.metrics import IOTAS, MetricTable, removal_probability
from valsel.selection import _check_stats
from valsel import (
    MISSING,
    ConfigError,
    DataError,
    FilterOutcome,
    VSConfig,
    compute_stats,
    dataset_from_rows,
    pvs,
    pvs_plus,
    random_value_removal,
)

from conftest import random_dataset, value_token


def mixed(seed=0, n=40):
    return random_dataset(seed, n=n, n_features=4, n_labels=2, missing_rate=0.15)


def test_config_validation():
    with pytest.raises(ConfigError):
        VSConfig(iota="gini")
    with pytest.raises(ConfigError):
        VSConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        VSConfig(epsilon=1.2)
    assert VSConfig().epsilon == 0.5
    with pytest.raises(ConfigError, match=r"^epsilon must be a number, got True$"):
        VSConfig(epsilon=True)
    with pytest.raises(ConfigError, match=r"^seed must be an integer, got 1\.5$"):
        VSConfig(seed=1.5)
    assert VSConfig(epsilon=1, seed=-7).seed == -7


def test_stale_stats_rejected(samples):
    other = samples.with_instances(samples.instances[:3])
    stats = compute_stats(other)
    for f in (pvs, pvs_plus):
        with pytest.raises(DataError):
            f(samples, VSConfig(), stats)


def test_filters_are_deterministic():
    d = mixed(5)
    stats = compute_stats(d)
    for select in (pvs, pvs_plus):
        cfg = VSConfig(epsilon=1.0, seed=11)
        a = select(d, cfg, stats)
        b = select(d, cfg, stats)
        assert a.filtered == b.filtered
        assert a.removed_value_mask == b.removed_value_mask
        assert a.removed_instances == b.removed_instances
        assert a.removed_features == b.removed_features
        assert any(
            select(d, dataclasses.replace(cfg, seed=s), stats).removed_value_mask
            != a.removed_value_mask
            for s in range(12, 40)
        )


def test_pvs_removes_values_globally():
    d = mixed(1)
    out = pvs(d, VSConfig(epsilon=0.3, seed=2), compute_stats(d))
    assert out.mode == "pvs"
    assert len(out.removed_value_mask) == len(d.features)
    for x, f in enumerate(d.features):
        assert len(out.removed_value_mask[x]) == len(f.values)

    # removed tokens leave the value set; kept tokens keep relative order
    for x, f in enumerate(d.features):
        kept = [
            v
            for z, v in enumerate(f.values)
            if not out.removed_value_mask[x][z]
        ]
        assert list(out.filtered.features[x].values) == kept

    # global consistency: a kept token keeps all occurrences, slot for slot
    survivors = set()
    for inst in out.filtered.instances:
        for x, z in enumerate(inst.slots):
            if z != MISSING:
                survivors.add((x, out.filtered.features[x].values[z]))
    for x, token in survivors:
        z = d.features[x].values.index(token)
        assert not out.removed_value_mask[x][z]


def test_pvs_blanks_every_occurrence_and_prunes_empty_instances():
    rows = [["a", "p"], ["a", "q"], ["b", "p"], ["a", None]]
    d = dataset_from_rows("g", ["f", "g"], rows, ["0", "1", "0", "1"])
    stats = compute_stats(d)
    # find a seed that removes exactly the token "a" on feature f
    target = d.features[0].values.index("a")
    for seed in range(200):
        out = pvs(d, VSConfig(epsilon=0.9, seed=seed), stats)
        hit = out.removed_value_mask[0][target]
        others = sum(v for row in out.removed_value_mask for v in row) - hit
        if hit and others == 0:
            break
    else:
        pytest.fail("no seed removed exactly one value")
    assert "a" not in out.filtered.features[0].values
    # instance 3 held only "a"; it must be gone, the rest keep g intact
    assert out.removed_instances == (3,)
    assert len(out.filtered.instances) == 3
    f_tokens = [
        value_token(out.filtered, 0, inst.slots[0]) for inst in out.filtered.instances
    ]
    assert f_tokens == [None, None, "b"]
    g_tokens = [
        value_token(out.filtered, 1, inst.slots[1]) for inst in out.filtered.instances
    ]
    assert g_tokens == ["p", "q", "p"]


def test_pvs_plus_mask_is_per_instance():
    d = mixed(2)
    out = pvs_plus(d, VSConfig(epsilon=0.5, seed=9), compute_stats(d))
    assert out.mode == "pvs_plus"
    assert len(out.removed_value_mask) == len(d.instances)
    assert all(len(row) == len(d.features) for row in out.removed_value_mask)
    # originally missing slots are never marked removed
    for inst, row in zip(d.instances, out.removed_value_mask):
        for x, hit in enumerate(row):
            if inst.slots[x] == MISSING:
                assert not hit


def test_pvs_plus_removes_per_occurrence_somewhere():
    d = mixed(4, n=60)
    stats = compute_stats(d)
    for seed in range(50):
        out = pvs_plus(d, VSConfig(epsilon=0.6, seed=seed), stats)
        per_value_fates: dict[tuple[int, int], set[bool]] = {}
        for inst, row in zip(d.instances, out.removed_value_mask):
            for x, hit in enumerate(row):
                z = inst.slots[x]
                if z != MISSING:
                    per_value_fates.setdefault((x, z), set()).add(hit)
        if any(fates == {True, False} for fates in per_value_fates.values()):
            return
    pytest.fail("no value was removed in one instance and kept in another")


def test_survivors_always_keep_an_observed_slot():
    for seed in range(12):
        d = mixed(seed)
        stats = compute_stats(d)
        for select in (pvs, pvs_plus):
            out = select(d, VSConfig(epsilon=0.3, seed=seed), stats)
            for inst in out.filtered.instances:
                assert any(z != MISSING for z in inst.slots)


def test_removed_features_never_survive_anywhere():
    for seed in range(12):
        d = mixed(seed + 100)
        stats = compute_stats(d)
        for select in (pvs, pvs_plus):
            out = select(d, VSConfig(epsilon=0.25, seed=seed), stats)
            for x in out.removed_features:
                assert all(
                    inst.slots[x] == MISSING for inst in out.filtered.instances
                )


def test_more_epsilon_means_fewer_removals():
    d = mixed(8, n=50)
    stats = compute_stats(d)

    def removals(select, eps):
        total = 0
        for seed in range(1000):
            out = select(d, VSConfig(epsilon=eps, seed=seed), stats)
            total += sum(1 for row in out.removed_value_mask for hit in row if hit)
        return total

    for select in (pvs, pvs_plus):
        assert removals(select, 0.2) >= removals(select, 0.8)


def test_extreme_entropy_wipes_everything():
    # every value evenly split over two labels: entropy exactly 1
    rows = [["a", "p"], ["a", "p"], ["b", "q"], ["b", "q"]]
    d = dataset_from_rows("hot", ["f", "g"], rows, ["0", "1", "0", "1"])
    stats = compute_stats(d)
    for select in (pvs, pvs_plus):
        out = select(d, VSConfig(epsilon=1.0, seed=0), stats)
        assert out.filtered.instances == ()
        assert out.removed_instances == (0, 1, 2, 3)
        assert out.removed_features == (0, 1)
        if select is pvs:
            assert out.filtered.features[0].values == ()
        else:
            assert out.filtered.features[0].values == d.features[0].values


def test_pure_values_are_never_touched():
    rows = [["a"], ["a"], ["b"], ["b"]]
    d = dataset_from_rows("pure", ["f"], rows, ["0", "0", "1", "1"])
    stats = compute_stats(d)
    for select in (pvs, pvs_plus):
        for seed in range(50):
            out = select(d, VSConfig(epsilon=0.5, seed=seed), stats)
            assert out.filtered == d, (select.__name__, seed)
            assert out.removed_instances == ()


def test_audit_text_mentions_removals():
    d = mixed(3)
    stats = compute_stats(d)
    out = pvs(d, VSConfig(epsilon=0.3, seed=1), stats)
    text = out.audit_text(d)
    assert text.startswith("mode: pvs")
    assert "removed values:" in text
    assert "removed instances:" in text
    out2 = pvs_plus(d, VSConfig(epsilon=0.3, seed=1), stats)
    text2 = out2.audit_text(d)
    assert "removed slots:" in text2
    assert isinstance(out2, FilterOutcome)


# ---------------------------------------------------------------------------
# invariants as properties
# ---------------------------------------------------------------------------


@st.composite
def filter_inputs(draw):
    """A small dataset with missing slots and some pure values, plus two ε."""
    n_features = draw(st.integers(1, 4))
    n = draw(st.integers(1, 25))
    rows = [
        [draw(st.sampled_from([None, "a", "b", "c"])) for _ in range(n_features)]
        for _ in range(n)
    ]
    labels = [draw(st.sampled_from(["0", "1", "2"])) for _ in range(n)]
    weights = [draw(st.sampled_from([1.0, 0.5, 2.0])) for _ in range(n)]
    d = dataset_from_rows("prop", [f"f{x}" for x in range(n_features)], rows, labels,
                          weights=weights)
    epsilons = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    return d, epsilons, draw(st.integers(0, 2**32))


def observed(d):
    return any(z != MISSING for inst in d.instances for z in inst.slots)


@settings(max_examples=150, deadline=None)
@given(filter_inputs())
def test_values_with_zero_entropy_are_never_removed(case):
    d, epsilons, seed = case
    if not observed(d):
        return
    stats = compute_stats(d)
    pure = {(s.feature, s.value) for s in stats.entries() if s.entropy == 0.0}
    for eps, filter_seed in itertools.product(epsilons, range(seed, seed + 10)):
        cfg = VSConfig("entropy", eps, filter_seed)
        mask = pvs(d, cfg, stats).removed_value_mask
        assert not any(mask[x][z] for x, z in pure)
        rows = pvs_plus(d, cfg, stats).removed_value_mask
        for inst, row in zip(d.instances, rows):
            assert not any(row[x] for x, z in enumerate(inst.slots) if (x, z) in pure)


@settings(max_examples=150, deadline=None)
@given(filter_inputs())
def test_every_pvs_survivor_keeps_an_observed_slot(case):
    d, epsilons, seed = case
    if not observed(d):
        return
    stats = compute_stats(d)
    for iota in ("entropy", "infogain"):
        for eps in epsilons:
            out = pvs(d, VSConfig(iota, eps, seed), stats)
            assert all(any(z != MISSING for z in inst.slots) for inst in out.filtered.instances)


def removed(out):
    """What a value filter removed: its mask's hits (values for pvs, slots
    for pvs_plus), its deleted instances and its removed features."""
    hits = {(i, j) for i, row in enumerate(out.removed_value_mask) for j, hit in enumerate(row)
            if hit}
    return hits, set(out.removed_instances), set(out.removed_features)


@settings(max_examples=150, deadline=None)
@given(filter_inputs())
def test_a_smaller_epsilon_removes_a_superset_but_pvs_plus_by_infogain_a_subset(case):
    d, epsilons, seed = case
    if not observed(d):
        return
    stats = compute_stats(d)
    small, large = sorted(epsilons)
    for select, iota in itertools.product((pvs, pvs_plus), ("entropy", "infogain")):
        more, fewer = (removed(select(d, VSConfig(iota, eps, seed), stats))
                       for eps in (small, large))
        if select is pvs_plus and iota == "infogain":
            # a slot goes when IG_N < r' * eps, and the draws r' do not depend on eps
            more, fewer = fewer, more
        for a, b in zip(fewer, more):
            assert a <= b, (select.__name__, iota)


class CountingRandom(random.Random):
    draws = 0

    def random(self):
        CountingRandom.draws += 1
        return super().random()


@settings(max_examples=100, deadline=None)
@given(filter_inputs())
def test_number_of_draws_does_not_depend_on_epsilon(case):
    d, epsilons, seed = case
    if not observed(d):
        return
    stats = compute_stats(d)
    observed_slots = sum(z != MISSING for inst in d.instances for z in inst.slots)
    expected = {
        pvs: sum(len(group) for group in stats.per_feature),
        pvs_plus: observed_slots + len(d.instances),
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sel, "random", types.SimpleNamespace(Random=CountingRandom))
        for select in (pvs, pvs_plus):
            for iota in ("entropy", "infogain"):
                counts = []
                for eps in epsilons:
                    CountingRandom.draws = 0
                    select(d, VSConfig(iota, eps, seed), stats)
                    counts.append(CountingRandom.draws)
                assert counts == [expected[select]] * len(epsilons), (select.__name__, iota)


# ---------------------------------------------------------------------------
# Reference oracle: pvs with per-slot dict remapping, verbatim
# ---------------------------------------------------------------------------
#
# pvs_oracle and _removed_features below are a verbatim copy (pvs renamed)
# of the pvs that remapped every slot through a per-feature dict and a
# removed-id set, built its output through the validating Dataset
# constructor, and scanned each feature's slots for an observed one. pvs
# must give an equal FilterOutcome, field by field, with the same filtered
# features (kinds included) and dataset name; pvs_plus must report the
# removed features that scan finds.


def _removed_features(filtered: Dataset) -> tuple[int, ...]:
    return tuple(
        x
        for x in range(len(filtered.features))
        if all(inst.slots[x] == MISSING for inst in filtered.instances)
    )


def pvs_oracle(d: Dataset, cfg: VSConfig, stats: MetricTable) -> FilterOutcome:
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


def assert_same_outcome(d, cfg, stats):
    want = pvs_oracle(d, cfg, stats)
    got = pvs(d, cfg, stats)
    for f in dataclasses.fields(FilterOutcome):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.filtered.features == want.filtered.features
    assert got.filtered.name == want.filtered.name


@settings(max_examples=200, deadline=None)
@given(filter_inputs())
def test_pvs_matches_oracle_on_drawn_data(case):
    d, epsilons, seed = case
    if not observed(d):
        return
    stats = compute_stats(d)
    for iota in ("entropy", "infogain"):
        for eps in epsilons:
            assert_same_outcome(d, VSConfig(iota, eps, seed), stats)
            out = pvs_plus(d, VSConfig(iota, eps, seed), stats)
            assert out.removed_features == _removed_features(out.filtered)


def test_pvs_matches_oracle_on_seeded_data():
    for d in [mixed(seed, n=120) for seed in range(4)]:
        stats = compute_stats(d)
        for iota, eps, seed in itertools.product(("entropy", "infogain"), (0.2, 0.6, 1.0), range(3)):
            assert_same_outcome(d, VSConfig(iota, eps, seed), stats)


# ---------------------------------------------------------------------------
# Row-by-row oracles: pvs_plus and random_value_removal
# ---------------------------------------------------------------------------
#
# Both are written from the draw order in the module docstrings of
# valsel.selection and valsel.baselines. They walk Instance objects one at
# a time, keep each row's slots in a list, and build their output through
# the validating Dataset constructor.


def pvs_plus_oracle(d: Dataset, cfg: VSConfig, stats: MetricTable) -> FilterOutcome:
    _check_stats(d, stats)
    rng = random.Random(cfg.seed)
    metric = {}
    for s in stats.entries():
        metric[s.feature, s.value] = s.norm_info_gain if cfg.iota == "infogain" else s.entropy
    mask, survivors, removed_instances = [], [], []
    for i, inst in enumerate(d.instances):
        slots, hits = [], []
        for x, z in enumerate(inst.slots):
            hit = False
            if z != MISSING:
                r = rng.random()  # drawn even when the value has no stats entry
                m = metric.get((x, z))
                if m is not None and cfg.iota == "infogain":
                    hit = m < r * cfg.epsilon
                elif m is not None:
                    hit = m > r * cfg.epsilon
            hits.append(hit)
            slots.append(MISSING if hit else z)
        mask.append(tuple(hits))
        deleted = False
        if d.features:
            miss_rate = slots.count(MISSING) / len(d.features)
            deleted = miss_rate > rng.random()
        if deleted:
            removed_instances.append(i)
        else:
            survivors.append(Instance(tuple(slots), inst.label, inst.weight))
    filtered = Dataset(d.features, tuple(survivors), d.labels, d.name)
    return FilterOutcome(
        filtered=filtered,
        removed_value_mask=tuple(mask),
        removed_instances=tuple(removed_instances),
        removed_features=_removed_features(filtered),
        stats=stats,
        mode="pvs_plus",
    )


def random_value_removal_oracle(d: Dataset, rate: float, seed: int = 0) -> Dataset:
    check_number("rate", rate, 0, 1, "[]")
    rng = random.Random(seed)
    survivors = []
    for inst in d.instances:
        slots = []
        for z in inst.slots:
            if z != MISSING and rng.random() < rate:
                z = MISSING
            slots.append(z)
        if not d.features or slots.count(MISSING) < len(slots):
            survivors.append(Instance(tuple(slots), inst.label, inst.weight))
    return Dataset(d.features, tuple(survivors), d.labels, d.name)


@st.composite
def oracle_inputs(draw):
    """A dataset of 0-4 features and 0-25 rows with missing slots, random
    weights and weight-0 rows (so an observed value may have no stats
    entry), its metric table, an epsilon in (0, 1], a seed and a rate.
    Where compute_stats has nothing to count (no rows, no feature, or no
    observed slot of positive weight) the table has no entry at all."""
    n_features = draw(st.integers(0, 4))
    n = draw(st.integers(0, 25))
    rows = [
        [draw(st.sampled_from([None, "a", "b", "c"])) for _ in range(n_features)]
        for _ in range(n)
    ]
    labels = [draw(st.sampled_from(["0", "1", "2"])) for _ in range(n)]
    weights = [draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0))) for _ in range(n)]
    d = dataset_from_rows("oracle", [f"f{x}" for x in range(n_features)], rows, labels,
                          weights=weights)
    try:
        stats = compute_stats(d)
    except DataError:
        stats = MetricTable(d.fingerprint, 0.0, ((),) * n_features)
    epsilon = draw(st.floats(0.0, 1.0, exclude_min=True))
    rate = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return d, stats, epsilon, draw(st.integers(0, 2**32)), rate


def assert_same_pvs_plus(d, cfg, stats):
    got, want = pvs_plus(d, cfg, stats), pvs_plus_oracle(d, cfg, stats)
    for f in dataclasses.fields(FilterOutcome):
        assert getattr(got, f.name) == getattr(want, f.name), (cfg.iota, f.name)
    assert_same_filtered(got.filtered, want.filtered)


def assert_same_filtered(got: Dataset, want: Dataset):
    assert got == want
    assert got.features == want.features  # kinds included
    assert got.name == want.name


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
def test_pvs_plus_and_random_value_removal_match_their_oracles(case):
    d, stats, epsilon, seed, rate = case
    for iota in IOTAS:
        assert_same_pvs_plus(d, VSConfig(iota, epsilon, seed), stats)
    assert_same_filtered(random_value_removal(d, rate, seed),
                         random_value_removal_oracle(d, rate, seed))


@settings(max_examples=200, deadline=None)
@given(oracle_inputs())
def test_ties_between_a_draw_and_its_threshold_match_the_oracles(case):
    """Every uniform rounded down to a quarter, and epsilon and the rate
    rounded to quarters too, so that a draw often equals a missing rate,
    the rate, or a metric over epsilon: each comparison's strictness shows."""
    d, stats, epsilon, seed, rate = case
    epsilon, rate = max(0.25, round(epsilon * 4) / 4), round(rate * 4) / 4
    draw = random.Random.random
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random.Random, "random", lambda self: math.floor(draw(self) * 4) / 4)
        for iota in IOTAS:
            assert_same_pvs_plus(d, VSConfig(iota, epsilon, seed), stats)
            assert_same_outcome(d, VSConfig(iota, epsilon, seed), stats)  # pvs against pvs_oracle
        assert_same_filtered(random_value_removal(d, rate, seed),
                             random_value_removal_oracle(d, rate, seed))


def test_pvs_plus_and_random_value_removal_match_their_oracles_on_seeded_data():
    for d in [mixed(seed, n=120) for seed in range(4)]:
        stats = compute_stats(d)
        for iota, eps, seed in itertools.product(IOTAS, (0.2, 0.6, 1.0), range(3)):
            assert_same_pvs_plus(d, VSConfig(iota, eps, seed), stats)
        for rate, seed in itertools.product((0.0, 0.3, 0.9, 1.0), range(3)):
            assert_same_filtered(random_value_removal(d, rate, seed),
                                 random_value_removal_oracle(d, rate, seed))
