"""Behavior of the global and per-instance value filters."""

from __future__ import annotations

import dataclasses

import pytest

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
)

from conftest import random_dataset


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
        out.filtered.value_token(0, inst.slots[0]) for inst in out.filtered.instances
    ]
    assert f_tokens == [None, None, "b"]
    g_tokens = [
        out.filtered.value_token(1, inst.slots[1]) for inst in out.filtered.instances
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
