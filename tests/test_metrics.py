"""Per-value statistics against a brute-force recount oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import (
    ConfigError,
    DataError,
    compute_stats,
    confusion_report,
    dataset_from_rows,
    removal_probability,
    selection_weights,
)
from valsel.data import MISSING
from valsel.metrics import (
    DATASET_ENTROPIES,
    MetricTable,
    ValueStats,
    _value_entropy,
    class_counts,
    class_keys,
    entropy_bits,
    left_sum,
    log,
)

from conftest import random_dataset, value_token


def stats_oracle(d):
    """Recount everything per (feature name, value token) with plain dicts."""
    n_labels = len(d.labels)
    out = {}
    for x, f in enumerate(d.features):
        per_value: dict[int, dict[int, float]] = {}
        total = 0.0
        for inst in d.instances:
            z = inst.slots[x]
            if z == MISSING:
                continue
            per_value.setdefault(z, {})
            per_value[z][inst.label] = per_value[z].get(inst.label, 0.0) + inst.weight
            total += inst.weight
        for z, per_class in per_value.items():
            support = sum(per_class.values())
            ent = 0.0
            if n_labels >= 2:
                for c in per_class.values():
                    p = c / support
                    ent -= p * math.log(p, n_labels)
            out[(f.name, f.values[z])] = {
                "support": support,
                "weight": support / total,
                "entropy": min(1.0, max(0.0, ent)),
            }
    return out


def by_token(table, d):
    return {
        (d.features[s.feature].name, s.token): s for s in table.entries()
    }


def test_sample_entropies_match_hand_computation(samples):
    table = compute_stats(samples)
    f3 = {s.token: s for s in table.per_feature[2]}
    two_thirds = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert f3["2"].entropy == pytest.approx(0.0, abs=1e-12)
    assert f3["1"].entropy == pytest.approx(two_thirds, abs=1e-12)
    assert f3["1"].entropy == pytest.approx(0.9183, abs=1e-4)
    assert f3["-1"].entropy == pytest.approx(0.0, abs=1e-12)
    assert f3["1"].support == 3
    assert f3["1"].weight == pytest.approx(3 / 5)
    # label id 0 is "1" (first appearance), id 1 is "0"
    assert f3["1"].class_probs == pytest.approx((1 / 3, 2 / 3))


def test_whole_table_matches_oracle(samples):
    for d in [samples] + [random_dataset(seed, n_labels=3) for seed in range(8)]:
        table = compute_stats(d)
        got = by_token(table, d)
        want = stats_oracle(d)
        assert set(got) == set(want)
        for key, w in want.items():
            s = got[key]
            assert s.support == pytest.approx(w["support"], abs=1e-12)
            assert s.weight == pytest.approx(w["weight"], abs=1e-12)
            assert s.entropy == pytest.approx(w["entropy"], abs=1e-12)


def test_dataset_confusion_is_the_sum_over_values(samples):
    table = compute_stats(samples)
    assert table.dataset_confusion == pytest.approx(
        sum(s.entropy for s in table.entries()), abs=1e-12
    )
    for s in table.entries():
        assert s.info_gain == pytest.approx(
            table.dataset_confusion - s.entropy, abs=1e-12
        )


def test_gain_normalization_per_feature(samples):
    table = compute_stats(samples)
    for group in table.per_feature:
        if not group:
            continue
        max_gain = max(s.info_gain for s in group)
        assert any(s.norm_info_gain == pytest.approx(1.0) for s in group)
        for s in group:
            assert 0.0 <= s.norm_info_gain <= 1.0
            assert s.norm_info_gain == pytest.approx(s.info_gain / max_gain)


def test_gain_descends_as_entropy_ascends():
    for seed in range(6):
        d = random_dataset(seed, n=80, n_values=4, n_labels=3)
        for group in compute_stats(d).per_feature:
            by_h = sorted(group, key=lambda s: s.entropy)
            gains = [s.info_gain for s in by_h]
            # near-ties in H can collapse to equal IG in float arithmetic
            assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))


def test_class_marginal_mode_clamps_gain():
    rows = [["a"], ["a"], ["b"]] * 3 + [["b"]]
    labels = ["0", "1", "0"] * 3 + ["0"]
    d = dataset_from_rows("skew", ["f"], rows, labels)
    table = compute_stats(d, dataset_entropy="class")
    label_counts = [sum(1 for y in labels if y == c) for c in d.labels]
    n = len(labels)
    expect = -sum((c / n) * math.log2(c / n) for c in label_counts)
    assert table.dataset_confusion == pytest.approx(expect, abs=1e-12)
    assert any(s.entropy > table.dataset_confusion for s in table.entries())
    for s in table.entries():
        assert s.info_gain >= 0.0
    with pytest.raises(ConfigError):
        compute_stats(d, dataset_entropy="bogus")


def test_flat_gain_feature_defers_with_warning(caplog):
    d = dataset_from_rows("uni", ["f"], [["a"], ["b"]], ["0", "0"])
    with caplog.at_level("WARNING"):
        table = compute_stats(d)
    assert all(s.norm_info_gain == 1.0 for s in table.entries())
    assert any("IG_N" in r.message for r in caplog.records)
    assert all(s.entropy == 0.0 for s in table.entries())
    assert all(
        removal_probability(s, "infogain", 0.5) == 0.0 for s in table.entries()
    )


def test_weights_count_like_duplicates():
    base_rows = [["a"], ["a"], ["b"]]
    dup = dataset_from_rows("dup", ["f"], base_rows + [["b"]], ["0", "1", "0", "0"])
    weighted = dataset_from_rows(
        "w", ["f"], base_rows, ["0", "1", "0"], weights=[1.0, 1.0, 2.0]
    )
    td, tw = compute_stats(dup), compute_stats(weighted)
    for sd, sw in zip(td.entries(), tw.entries()):
        assert sd.support == pytest.approx(sw.support)
        assert sd.entropy == pytest.approx(sw.entropy)
        assert sd.weight == pytest.approx(sw.weight)


def test_stats_survive_instance_and_feature_reorder():
    d = random_dataset(3, n=30, n_labels=3)
    domains = [f.values for f in d.features]
    rows = [
        [value_token(d, x, inst.slots[x]) for x in range(len(d.features))]
        for inst in d.instances
    ]
    labels = [d.labels[inst.label] for inst in d.instances]

    shuffled = dataset_from_rows(
        "shuffled",
        [f.name for f in d.features],
        rows[::-1],
        labels[::-1],
        domains=domains,
        label_domain=d.labels,
    )
    reordered = dataset_from_rows(
        "reordered",
        [f.name for f in reversed(d.features)],
        [row[::-1] for row in rows],
        labels,
        domains=domains[::-1],
        label_domain=d.labels,
    )

    def keyed(dd):
        return {
            k: (s.support, s.entropy, s.info_gain, s.norm_info_gain)
            for k, s in by_token(compute_stats(dd), dd).items()
        }

    want = keyed(d)
    for other in (keyed(shuffled), keyed(reordered)):
        assert set(other) == set(want)
        for key, fields in want.items():
            assert other[key] == pytest.approx(fields, abs=1e-9), key


def test_missing_slots_never_form_a_value():
    d = dataset_from_rows("m", ["f"], [["a"], [None], [None]], ["0", "1", "1"])
    table = compute_stats(d)
    entries = list(table.entries())
    assert len(entries) == 1
    assert entries[0].support == 1.0
    assert entries[0].weight == 1.0


def test_single_label_dataset_has_zero_entropies():
    d = dataset_from_rows("one", ["f"], [["a"], ["b"]], ["x", "x"])
    table = compute_stats(d)
    assert all(s.entropy == 0.0 for s in table.entries())
    assert table.dataset_confusion == 0.0


def test_a_share_that_underflows_adds_no_entropy():
    # 5e-324 / 2.0 rounds to 0.0: the term is 0 * log 0, not a math domain error
    assert entropy_bits([2.0, 5e-324]) == 0.0
    assert entropy_bits([1.0, 1.0]) == 1.0
    assert _value_entropy([2.0, 5e-324], 2.0 + 5e-324, 2) == 0.0
    assert _value_entropy([3.0, 3.0], 6.0, 2) == 1.0


def test_removal_probability_clamps_and_validates(samples):
    table = compute_stats(samples)
    s = next(s for s in table.entries() if s.entropy > 0.5)
    assert removal_probability(s, "entropy", 0.5) == 1.0
    assert removal_probability(s, "entropy", 1.0) == pytest.approx(s.entropy)
    assert 0.0 <= removal_probability(s, "infogain", 1.0) <= 1.0
    with pytest.raises(ConfigError):
        removal_probability(s, "gini", 0.5)
    with pytest.raises(ConfigError):
        removal_probability(s, "entropy", 0.0)
    with pytest.raises(ConfigError):
        removal_probability(s, "entropy", 1.5)
    with pytest.raises(ConfigError, match=r"^epsilon must be a number, got '0\.5'$"):
        removal_probability(s, "entropy", "0.5")


def test_selection_weights_zero_out_fully_confused_values():
    d = dataset_from_rows("c", ["f"], [["a"], ["a"], ["b"]], ["0", "1", "0"])
    table = compute_stats(d)
    weights = dict(zip([s.token for s in table.entries()], selection_weights(table)))
    assert weights["a"] == 0.0  # entropy exactly 1
    s_b = next(s for s in table.entries() if s.token == "b")
    assert weights["b"] == pytest.approx(s_b.weight)


def test_confusion_report_drop_equals_weighted_squared_entropy():
    for seed in range(100):
        d = random_dataset(seed, n=20 + seed % 30, n_labels=2 + seed % 3)
        table = compute_stats(d)
        before, after = confusion_report(table, selection_weights(table))
        assert after <= before + 1e-12
        drop = sum(s.weight * s.entropy**2 for s in table.entries())
        assert before - after == pytest.approx(drop, abs=1e-9)
        if all(s.entropy == 0.0 for s in table.entries()):
            assert before == after
        elif any(s.entropy > 1e-9 for s in table.entries()):
            assert after < before


def test_confusion_report_checks_alignment(samples):
    table = compute_stats(samples)
    with pytest.raises(DataError):
        confusion_report(table, [1.0])


def test_rejects_degenerate_datasets():
    with pytest.raises(DataError):
        compute_stats(
            dataset_from_rows("e", ["f"], [], [])
        )
    d = dataset_from_rows("allmiss", ["f"], [[None], [None]], ["0", "1"])
    with pytest.raises(DataError):
        compute_stats(d)


def test_format_table_lists_every_value(samples):
    text = compute_stats(samples).format_table("entropy", 0.5)
    lines = text.splitlines()
    assert "p_remove" in lines[0]
    assert len(lines) == 1 + sum(1 for _ in compute_stats(samples).entries())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_entropy_bounds_and_entry_order(seed):
    d = random_dataset(seed, n=25, n_labels=2 + seed % 4, missing_rate=0.2)
    table = compute_stats(d)
    seen = []
    for s in table.entries():
        assert 0.0 <= s.entropy <= 1.0
        assert 0.0 <= s.weight <= 1.0
        assert s.support > 0
        assert s.info_gain == pytest.approx(
            table.dataset_confusion - s.entropy, abs=1e-12
        )
        seen.append((s.feature, s.value))
    assert seen == sorted(seen)
    per_feature_weight = {}
    for s in table.entries():
        per_feature_weight[s.feature] = per_feature_weight.get(s.feature, 0.0) + s.weight
    for x, total in per_feature_weight.items():
        assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Counting oracle: compute_stats with the per-slot loop, verbatim
# ---------------------------------------------------------------------------


def compute_stats_oracle(d: Dataset, dataset_entropy: str = "value-sum") -> MetricTable:
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


@st.composite
def stats_inputs(draw):
    """Small datasets with missing slots, possibly an all-missing feature, a
    declared value nobody holds, 1-4 labels and unit, dyadic or real weights."""
    n_features = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    rows = [[draw(st.sampled_from([None, "a", "b", "c"])) for _ in range(n_features)] for _ in range(n)]
    if draw(st.booleans()):
        empty = draw(st.integers(0, n_features - 1))
        for row in rows:
            row[empty] = None
    label_domain = tuple(str(c) for c in range(n_labels))
    labels = [draw(st.sampled_from(label_domain)) for _ in range(n)]
    weight = draw(
        st.sampled_from(
            [
                st.just(1.0),
                st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                st.floats(0.0, 4.0, allow_subnormal=False),
            ]
        )
    )
    return dataset_from_rows(
        "drawn", [f"f{x}" for x in range(n_features)], rows, labels,
        domains=[("a", "b", "c", "d")] * n_features, label_domain=label_domain,
        weights=[draw(weight) for _ in range(n)],
    )


@settings(max_examples=300, deadline=None)
@given(stats_inputs(), st.sampled_from(DATASET_ENTROPIES))
def test_counting_matches_the_per_slot_loop(d, dataset_entropy):
    try:
        want = compute_stats_oracle(d, dataset_entropy)
    except DataError:
        with pytest.raises(DataError):
            compute_stats(d, dataset_entropy)
        return
    got = compute_stats(d, dataset_entropy)
    assert got.fingerprint == want.fingerprint
    assert got.dataset_confusion == want.dataset_confusion
    assert got.per_feature == want.per_feature  # every ValueStats field, floats exactly
    assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", range(4))
def test_unit_counting_matches_the_per_slot_loop_on_larger_data(seed):
    d = random_dataset(seed, n=3000, n_features=6, n_labels=2 + seed, n_values=5, missing_rate=0.3)
    assert repr(compute_stats(d)) == repr(compute_stats_oracle(d))


@pytest.mark.parametrize("seed", range(3))
def test_unit_class_counts_match_the_fractional_path_on_unit_pairs(seed):
    d = random_dataset(seed, n=300, n_features=3, n_labels=2 + seed, n_values=4, missing_rate=0.3)
    n, n_labels = len(d.instances), len(d.labels)
    for f, column in zip(d.features, d.instances.columns):
        keys = class_keys(len(f.values), column, d.instances.label_ids, n_labels)
        for items in (range(n), range(n - 1, -1, -3), [7, 3, 3, 250, 0]):
            unit_counts, unit_w = class_counts(keys, items, True, n_labels)
            frac_counts, frac_w = class_counts(keys, [(i, 1.0) for i in items], False, n_labels)
            assert list(unit_counts.items()) == list(frac_counts.items())  # order too
            assert repr(unit_counts) == repr(frac_counts)  # floats, not ints
            assert repr(unit_w) == repr(frac_w)


# Below, plain left-to-right addition and the compensated sum of Python 3.12+
# round differently: each site must add left to right on every interpreter.
BIG = 2.0**53  # BIG + 1.0 rounds to BIG; BIG + 2.0 is exact


def test_entropy_bits_adds_its_total_left_to_right():
    counts = (BIG, 1.0, 1.0)
    assert math.fsum(counts) == BIG + 2.0
    # over the total BIG each count of 1 has p = 2**-53 and adds 53 * 2**-53 bits
    assert entropy_bits(counts) == 106 * 2.0**-53


def test_support_adds_class_weights_left_to_right():
    d = dataset_from_rows("s", ["f"], [["a"]] * 3, ["0", "1", "2"], weights=[BIG, 1.0, 1.0])
    (s,) = compute_stats(d).entries()
    assert s.support == BIG
    assert s.class_probs == (1.0, 1.0 / BIG, 1.0 / BIG)


def test_value_sum_confusion_adds_entropies_left_to_right():
    # a splits 1:1 (H = 1); b and c each hold a 1e-18 share, H about 6e-17
    rows = [["a"], ["a"], ["b"], ["b"], ["c"], ["c"]]
    d = dataset_from_rows("v", ["f"], rows, list("010101"), weights=[1, 1, 1, 1e-18, 1, 1e-18])
    table = compute_stats(d)
    ents = [s.entropy for s in table.entries()]
    assert ents[0] == 1.0 and math.fsum(ents) > 1.0
    assert table.dataset_confusion == 1.0


def test_class_marginal_confusion_adds_label_weights_left_to_right():
    d = dataset_from_rows("c", ["f"], [["a"]] * 3, ["0", "1", "2"], weights=[BIG, 1.0, 1.0])
    got = compute_stats(d, "class").dataset_confusion
    assert got == _value_entropy([BIG, 1.0, 1.0], BIG, 3)
    assert got != _value_entropy([BIG, 1.0, 1.0], BIG + 2.0, 3)


def test_confusion_report_adds_terms_left_to_right():
    # 1 + e rounds to 1, while 1 + 2e rounds up to the next float above 1
    e = 0.75 * 2.0**-53
    stats = tuple(
        ValueStats(0, z, t, 1.0, (1.0,), 1.0, h, 0.0, 1.0)
        for z, (t, h) in enumerate([("a", 1.0), ("b", e), ("c", e)])
    )
    table = MetricTable("fp", 1.0, (stats,))
    assert math.fsum([1.0, e, e]) > 1.0
    assert confusion_report(table, [1.0, 1.0, 1.0]) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# One entropy: entropy_bits against the loops it replaced, verbatim
# ---------------------------------------------------------------------------


def old_value_entropy(counts, support: float, n_labels: int) -> float:
    if n_labels < 2 or support <= 0:
        return 0.0
    log_base = math.log(n_labels)
    ent = 0.0
    for c in counts:
        p = c / support
        if p > 0:
            ent -= p * (math.log(p) / log_base)
    return min(1.0, max(0.0, ent))


def old_split_info(value_weights, known_w: float, total: float) -> float:
    """The split information loop of the tree learner's scoring step."""
    split_info = 0.0
    for vw in value_weights:
        q = vw / total
        if q > 0:
            split_info -= q * math.log2(q)
    q = (total - known_w) / total  # the missing share
    if q > 0:
        split_info -= q * math.log2(q)
    return split_info


WEIGHT = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.0, 5e-324, 1e-300, 2.0**-60, BIG]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(WEIGHT, max_size=6), st.floats(0.0, 1e6), st.integers(1, 5),
       st.sampled_from(["sum", "above", "free"]))
def test_entropy_bits_matches_the_loops_it_replaced(counts, extra, n_labels, total_kind):
    """Bit for bit, on vectors with zeros and tiny weights, over their left
    sum, a total above it, and any total."""
    total = left_sum(counts)
    if total_kind == "above":
        total += extra
    elif total_kind == "free":
        total = extra
    assert _value_entropy(counts, total, n_labels) == old_value_entropy(counts, total, n_labels)
    if n_labels >= 2 and total > 0:
        unclamped = entropy_bits(counts, total, n_labels)
        assert min(1.0, max(0.0, unclamped)) == old_value_entropy(counts, total, n_labels)
    if total > 0:
        known_w = left_sum(counts) if total_kind == "sum" else min(total, left_sum(counts))
        got = entropy_bits([*counts, total - known_w], total)
        assert got == old_split_info(counts, known_w, total)
    if total_kind == "sum":
        assert entropy_bits(counts) == entropy_bits(counts, total)
