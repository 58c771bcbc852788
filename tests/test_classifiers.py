"""Tree and rule learners: growth, pruning, prediction, model size."""

from __future__ import annotations

import gc
import math
import operator
import tracemalloc
from contextlib import contextmanager
from functools import reduce
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import (
    MISSING,
    ConfigError,
    DataError,
    Instance,
    LearnerSpec,
    RuleModel,
    TreeModel,
    dataset_from_rows,
    train_rules,
    train_tree,
)
from valsel import classifiers
from valsel.classifiers import Leaf, Rule, Split
from valsel.metrics import entropy_bits

from conftest import n_leaves, random_dataset, rule_features, separable_dataset, split_features, value_token
from test_tree_oracle import assert_same_tree


def interaction_dataset():
    """label = a xor b, with duplicated rows so feature a has positive gain."""
    rows = [["0", "0"], ["0", "0"], ["0", "1"], ["1", "0"], ["1", "0"], ["1", "1"]]
    labels = ["0", "0", "1", "1", "1", "0"]
    return dataset_from_rows("xorish", ["a", "b"], rows, labels)


def three_leaf_dataset():
    # one feature, three pure leaves with weights 2/3/2
    rows = [["x"], ["x"], ["y"], ["y"], ["y"], ["z"], ["z"]]
    labels = ["0", "0", "1", "1", "1", "0", "0"]
    return dataset_from_rows("mix", ["a"], rows, labels)


def exact_rule_dataset():
    """f1='a' is class X exactly, everything else is Y; f2 is noise."""
    rows = [["b", "u"], ["b", "v"], ["c", "u"], ["a", "u"], ["c", "v"], ["b", "u"],
            ["a", "v"], ["c", "u"], ["b", "v"], ["a", "u"], ["c", "v"], ["a", "v"]]
    labels = ["Y", "Y", "Y", "X", "Y", "Y", "X", "Y", "Y", "X", "Y", "X"]
    return dataset_from_rows("ru", ["f1", "f2"], rows, labels)


def walk_paths(node, path=()):
    """Yield (path feature indices, node) for every node in the subtree."""
    yield path, node
    if isinstance(node, Split):
        for child in node.children.values():
            yield from walk_paths(child, path + (node.feature,))


# ---------------------------------------------------------------------------
# tree growth
# ---------------------------------------------------------------------------


def test_single_label_dataset_is_one_leaf():
    d = dataset_from_rows("s", ["f"], [["x"], ["y"], ["x"]], ["only"] * 3)
    t = train_tree(d)
    assert t.size == 1 and n_leaves(t) == 1
    assert isinstance(t.root, Leaf)
    assert t.predict(d.instances[0]) == ("only", (1.0,))


def test_learns_two_feature_interaction_exactly():
    d = interaction_dataset()
    t = train_tree(d, min_leaf=1, cf=1.0)
    # hand-built shape: root tests a, both children test b, four pure leaves
    assert t.size == 7 and n_leaves(t) == 4
    root = t.root
    assert isinstance(root, Split) and root.name == "a"
    assert set(root.children) == {"0", "1"}
    for a_tok, child in root.children.items():
        assert isinstance(child, Split) and child.name == "b"
        for b_tok, leaf in child.children.items():
            assert isinstance(leaf, Leaf)
            want = str(int(a_tok) ^ int(b_tok))
            assert d.labels[leaf.label] == want
    hits = sum(t.predict(i)[0] == d.labels[i.label] for i in d.instances)
    assert hits == len(d.instances)
    assert split_features(t) == {"a", "b"}


def test_zero_gain_features_collapse_to_majority_leaf():
    # pure XOR: either feature alone has zero gain, so growth stops at the root
    d = dataset_from_rows(
        "x", ["a", "b"],
        [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
        ["0", "1", "1", "0"],
    )
    t = train_tree(d, min_leaf=1, cf=1.0)
    assert t.size == 1
    assert t.predict(d.instances[0])[0] == "0"  # 2-2 tie breaks to first label


def test_value_purity_shows_in_branches(samples):
    # the third feature in isolation: values 2 and -1 predict cleanly, 1 does not
    rows = [[value_token(samples, 2, inst.slots[2])] for inst in samples.instances]
    labels = [samples.labels[inst.label] for inst in samples.instances]
    d = dataset_from_rows("f3only", ["f3"], rows, labels)
    t = train_tree(d, min_leaf=1, cf=1.0)
    root = t.root
    assert isinstance(root, Split) and root.name == "f3"
    pure = {tok: sum(1 for c in leaf.counts if c > 0) == 1
            for tok, leaf in root.children.items()}
    assert pure == {"2": True, "1": False, "-1": True}
    assert d.labels[root.children["2"].label] == "1"
    assert d.labels[root.children["-1"].label] == "1"
    assert d.labels[root.children["1"].label] == "0"


def test_gain_ratio_tie_prefers_lowest_feature_index():
    rows = [["x", "x"], ["x", "x"], ["y", "y"], ["y", "y"]]
    d = dataset_from_rows("tie", ["left", "right"], rows, ["A", "A", "B", "B"])
    t = train_tree(d, min_leaf=1, cf=1.0)
    assert isinstance(t.root, Split)
    assert t.root.feature == 0 and t.root.name == "left"


def test_min_leaf_stops_growth():
    rows = [["x"], ["x"], ["y"], ["y"]]
    d = dataset_from_rows("ml", ["f"], rows, ["A", "A", "B", "B"])
    assert train_tree(d, min_leaf=3, cf=1.0).size == 1
    assert train_tree(d, min_leaf=2, cf=1.0).size == 3


def test_zero_feature_dataset_trains_majority_model():
    d = dataset_from_rows("z", [], [[], [], []], ["a", "a", "b"])
    t = train_tree(d)
    assert t.size == 1
    assert t.predict(d.instances[0])[0] == "a"


def test_missing_values_split_fractionally(samples):
    t = train_tree(samples, min_leaf=1, cf=1.0)
    # the instance missing f1 descends both branches with weight 0.5 each
    assert t.to_text() == (
        "f1 = 1: 1 (2.5)\n"
        "f1 = -1\n"
        "|  f3 = 2: 1 (0.5)\n"
        "|  f3 = 1: 0 (2)\n"
    )
    assert t.size == 5 and n_leaves(t) == 3


def test_perfect_fit_when_pruning_disabled(make_separable):
    for seed in (0, 1, 2):
        d = make_separable(seed=seed, n=48, noise=0.0)
        t = train_tree(d, min_leaf=1, cf=1.0)
        hits = sum(t.predict(i)[0] == d.labels[i.label] for i in d.instances)
        assert hits == len(d.instances)


def test_pruning_never_grows_the_tree(make_separable, make_dataset):
    for seed in (0, 1, 2):
        d = make_separable(seed=seed, n=60, noise=0.3)
        full = train_tree(d, min_leaf=2, cf=1.0)
        pruned = train_tree(d, min_leaf=2, cf=0.25)
        assert pruned.size <= full.size
    for seed in (3, 4, 5):
        d = make_dataset(seed, n=50)
        assert train_tree(d).size <= train_tree(d, cf=1.0).size


def test_pruning_collapses_an_uninformative_split():
    rows = [["x"]] * 10 + [["y"]] * 10
    labels = ["A"] * 9 + ["B"] + ["A"] * 8 + ["B"] * 2
    d = dataset_from_rows("noise", ["f"], rows, labels)
    assert train_tree(d, min_leaf=1, cf=1.0).size == 3
    assert train_tree(d, min_leaf=1, cf=0.25).size == 1


def test_paths_never_retest_a_feature(make_dataset):
    for seed in range(6):
        d = make_dataset(seed, n=60, n_features=5)
        t = train_tree(d, min_leaf=1, cf=1.0)
        nodes = leaves = 0
        for path, node in walk_paths(t.root):
            nodes += 1
            leaves += isinstance(node, Leaf)
            assert len(set(path)) == len(path)
        assert t.size == nodes and n_leaves(t) == leaves


def test_weighted_instances_equal_duplicated_rows():
    rows = [["x", "u"], ["x", "v"], ["y", "u"], ["y", "v"], ["y", "u"]]
    labels = ["A", "A", "B", "B", "A"]
    dup = dataset_from_rows("d1", ["f", "g"], rows + [rows[0]], labels + [labels[0]])
    weighted = dataset_from_rows(
        "d2", ["f", "g"], rows, labels, weights=[2.0, 1.0, 1.0, 1.0, 1.0]
    )
    a = train_tree(dup, min_leaf=1, cf=1.0)
    b = train_tree(weighted, min_leaf=1, cf=1.0)
    assert a.root == b.root and a.size == b.size


def test_training_is_deterministic(make_dataset):
    d = make_dataset(7, n=50)
    assert train_tree(d) == train_tree(d)
    assert train_tree(d).to_text() == train_tree(d).to_text()
    assert train_rules(d) == train_rules(d)


# ---------------------------------------------------------------------------
# tree prediction
# ---------------------------------------------------------------------------


def test_pure_leaf_prediction_is_certain():
    d = three_leaf_dataset()
    t = train_tree(d, min_leaf=1, cf=1.0)
    assert t.predict(d.instances[0]) == ("0", (1.0, 0.0))
    assert t.predict(d.instances[2]) == ("1", (0.0, 1.0))


def test_all_missing_instance_gets_root_distribution():
    d = three_leaf_dataset()
    t = train_tree(d, min_leaf=1, cf=1.0)
    label, dist = t.predict(Instance((MISSING,), 0, 1.0))
    assert label == "0"
    assert dist == pytest.approx((4 / 7, 3 / 7), abs=1e-12)
    total = sum(t.root.counts)
    assert dist == pytest.approx(tuple(c / total for c in t.root.counts), abs=1e-12)


def test_missing_slot_mixes_branches_by_training_weight():
    d = interaction_dataset()
    t = train_tree(d, min_leaf=1, cf=1.0)
    # a known, b missing: mix leaves under the a-branch at 2/3 and 1/3
    label, dist = t.predict(Instance((d.features[0].values.index("0"), MISSING), 0, 1.0))
    assert label == "0"
    assert dist == pytest.approx((2 / 3, 1 / 3), abs=1e-12)
    # a missing, b known: fan out at the root, the halves cancel to a tie
    label, dist = t.predict(Instance((MISSING, d.features[1].values.index("1")), 0, 1.0))
    assert dist == pytest.approx((0.5, 0.5), abs=1e-12)
    assert label == "0"  # tie resolves to the first label


def test_unseen_value_falls_back_to_branch_mixture():
    d = interaction_dataset()
    t = train_tree(d, min_leaf=1, cf=1.0)
    wide = dataset_from_rows(
        "wide", ["a", "b"], [["2", "0"]], ["0"],
        domains=[["0", "1", "2"], ["0", "1"]], label_domain=["0", "1"],
    )
    label, dist = t.predict(wide.instances[0], schema=wide)
    assert dist == pytest.approx((0.5, 0.5), abs=1e-12)
    assert label == "0"


def test_distributions_are_proper(make_dataset):
    for seed in (0, 1, 2):
        d = make_dataset(seed, n=40)
        t = train_tree(d)
        probes = list(d.instances) + [Instance((MISSING,) * len(d.features), 0, 1.0)]
        for inst in probes:
            label, dist = t.predict(inst)
            assert len(dist) == len(d.labels)
            assert sum(dist) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in dist)
            assert label == d.labels[max(range(len(dist)), key=lambda l: (dist[l], -l))]


def test_tokens_route_across_reinterned_schemas(make_dataset):
    d = make_dataset(11, n=40)
    t = train_tree(d)
    rows = [
        [value_token(d, x, inst.slots[x]) for x in range(len(d.features))]
        for inst in reversed(d.instances)
    ]
    labels = [d.labels[inst.label] for inst in reversed(d.instances)]
    other = dataset_from_rows(
        "re", [f.name for f in d.features], rows, labels, label_domain=d.labels
    )
    for i, inst in enumerate(other.instances):
        original = d.instances[len(d.instances) - 1 - i]
        assert t.predict(inst, schema=other) == t.predict(original)


def test_tree_argument_validation():
    d = three_leaf_dataset()
    with pytest.raises(ConfigError):
        train_tree(d, min_leaf=0)
    with pytest.raises(ConfigError):
        train_tree(d, cf=0.0)
    with pytest.raises(ConfigError):
        train_tree(d, cf=1.0001)
    for tiny in (1e-300, 5e-17):  # 1 - cf rounds to 1: no normal quantile
        with pytest.raises(ConfigError, match="too small"):
            train_tree(d, cf=tiny)
    train_tree(d, cf=1.2e-16)  # the smallest cf whose 1 - cf stays below 1 prunes
    for bad in (2.5, True, "2"):
        with pytest.raises(ConfigError, match=f"^min_leaf must be an integer, got {bad!r}$"):
            train_tree(d, min_leaf=bad)
        with pytest.raises(ConfigError, match="^min_leaf must be an integer"):
            LearnerSpec("tree", min_leaf=bad).check()
    for bad in (True, "0.5"):
        with pytest.raises(ConfigError, match=f"^cf must be a number, got {bad!r}$"):
            train_tree(d, cf=bad)
    empty = dataset_from_rows("e", ["f"], [], [])
    with pytest.raises(DataError):
        train_tree(empty)


@contextmanager
def collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("weighted", [False, True])
def test_a_fit_leaves_no_cyclic_garbage(weighted):
    # Unit weights and fractional weights below missing-value fan-outs, pruned
    # and not: every object a fit makes is freed by reference counting alone.
    d = random_dataset(4, n=2000, n_features=6, n_labels=3, n_values=4, missing_rate=0.2)
    if weighted:
        d = d.with_instances(
            Instance(inst.slots, inst.label, 0.5 + i % 3) for i, inst in enumerate(d.instances)
        )
    with collector(False):
        gc.collect()
        assert train_tree(d, cf=1.0).size > 100
        assert gc.collect() == 0
        train_tree(d)
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_a_fit_pauses_the_collector_and_restores_it(enabled, monkeypatch):
    seen = []

    def entropy(*args):
        seen.append(gc.isenabled())
        return entropy_bits(*args)

    monkeypatch.setattr(classifiers, "entropy_bits", entropy)
    with collector(enabled):
        train_tree(random_dataset(2, n=200))
        assert gc.isenabled() is enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failing_fit_restores_the_collector(enabled, monkeypatch):
    def entropy(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(classifiers, "entropy_bits", entropy)
    with collector(enabled):
        with pytest.raises(RuntimeError, match="boom"):
            train_tree(random_dataset(2, n=200))
        assert gc.isenabled() is enabled


# ---------------------------------------------------------------------------
# pruning during growth, and float sums
# ---------------------------------------------------------------------------


def least(n, cf):
    """g(n): the extra errors of an error-free leaf of n items."""
    return classifiers._added_errors(n, 0.0, cf, NormalDist().inv_cdf(1.0 - cf))


CFS = st.floats(1e-3, 0.5, exclude_max=True)  # below 1e-3 the tree learner takes lb = 0
SIZES = st.floats(1e-6, 1e7)


@settings(max_examples=500, deadline=None)
@given(CFS, SIZES, st.floats(0.0, 1.0))
def test_no_leaf_estimates_below_g(cf, n, share):
    e = share * n  # 0 <= e <= n
    z = NormalDist().inv_cdf(1.0 - cf)
    assert e + classifiers._added_errors(n, e, cf, z) >= least(n, cf)


@settings(max_examples=500, deadline=None)
@given(CFS, SIZES, SIZES)
def test_g_is_subadditive(cf, a, b):
    assert least(a, cf) + least(b, cf) >= least(a + b, cf)


@settings(max_examples=500, deadline=None)
@given(CFS, st.lists(st.integers(1, 20000), min_size=2, max_size=12))
def test_k_unit_children_bound_lo_before_scoring(cf, sizes):
    # Karamata: g is concave, so k parts of at least one item add up to at least
    # g(n - k + 1) + (k - 1) g(1), the pre-scoring bound, less its relative 1e-6.
    z = NormalDist().inv_cdf(1.0 - cf)
    lb = [classifiers._least_errors(float(m), cf, z) for m in sizes]
    n, k = float(sum(sizes)), len(sizes)
    least_n, least_1 = (classifiers._least_errors(m, cf, z) for m in (n - k + 1, 1.0))
    assert (least_n + (k - 1) * least_1) * (1.0 - 1e-6) <= reduce(operator.add, lb, 0.0)


def dense_cases():
    d = random_dataset(0, n=2000, n_features=6, n_labels=3, n_values=10, missing_rate=0.0)
    fanned = random_dataset(1, n=1500, n_features=5, n_labels=3, n_values=6, missing_rate=0.2)
    weighted = fanned.with_instances(
        Instance(inst.slots, inst.label, 0.5 + i % 3) for i, inst in enumerate(fanned.instances)
    )
    return [d, fanned, weighted]


def test_g_is_no_bound_for_tiny_cf_so_lb_is_zero():
    # n = 2, e = 1: the normal approximation undercuts the zero-error bound
    cf = 1e-5
    z = NormalDist().inv_cdf(1.0 - cf)
    assert 1.0 + classifiers._added_errors(2.0, 1.0, cf, z) < least(2.0, cf)
    assert classifiers._least_errors(2.0, cf, z) == 0.0
    for d in dense_cases():
        assert_same_tree(d, 2, cf)


def test_zero_lower_bounds_give_the_same_trees(monkeypatch):
    monkeypatch.setattr(classifiers, "_least_errors", lambda n, cf, z: 0.0)
    for d in dense_cases():
        for cf in (0.25, 0.1):
            assert_same_tree(d, 2, cf)


# Below, plain left-to-right addition and the compensated sum of Python 3.12+
# round differently: each site must add left to right on every interpreter.
BIG = 2.0**53  # BIG + 1.0 rounds to BIG; BIG + 2.0 is exact


def test_normalized_adds_counts_left_to_right():
    counts = (BIG, 1.0, 1.0)
    assert math.fsum(counts) == BIG + 2.0
    assert classifiers._normalized(counts) == (1.0, 1.0 / BIG, 1.0 / BIG)


def test_to_text_adds_leaf_counts_left_to_right():
    top = 1.0000049999999998  # the float below 1.000005, the last to print as 1
    counts = (top, 2.0**-53, 2.0**-53)
    assert format(math.fsum(counts), "g") == "1.00001"
    model = TreeModel(Leaf(counts, 0), ("a", "b", "c"), ())
    assert model.to_text() == "a (1)\n"


def test_fractional_node_total_adds_left_to_right():
    # Class weights (BIG, 1, 1, BIG + 2) add up to BIG * 2 from the left and to
    # BIG * 2 + 4 compensated: only the latter reaches 2 * min_leaf and splits.
    rows = [["a"], ["a"], ["b"], ["b"]]
    d = dataset_from_rows(
        "big", ["f"], rows, ["A", "B", "C", "D"], weights=[BIG, 1.0, 1.0, BIG + 2.0]
    )
    min_leaf = 2**53 + 2
    assert math.fsum([BIG, 1.0, 1.0, BIG + 2.0]) >= 2 * min_leaf > 2 * BIG
    assert isinstance(train_tree(d, min_leaf, 1.0).root, Leaf)


def test_fractional_branch_shares_add_left_to_right():
    # Value a holds class weights (BIG, 1, 1): BIG from the left, BIG + 2 compensated.
    rows = [["a"], ["a"], ["a"], ["b"]]
    d = dataset_from_rows(
        "big", ["f"], rows, ["A", "B", "C", "B"], weights=[BIG, 1.0, 1.0, BIG]
    )
    root = train_tree(d, 1, 1.0).root
    assert isinstance(root, Split)
    assert root.branch_weights == {"a": 0.5, "b": 0.5}
    assert (BIG + 2.0) / (2 * BIG) != 0.5


# ---------------------------------------------------------------------------
# rule learning
# ---------------------------------------------------------------------------


def test_single_rule_captures_an_exact_class():
    d = exact_rule_dataset()
    m = train_rules(d)
    assert m.size == 2
    assert m.to_text() == "(f1 = 'a') => class=X\n=> class=Y\n"
    first = m.rules[0]
    assert first.conditions == (("f1", "a"),)
    assert d.labels[first.label] == "X"
    assert first.distribution == (0.0, 1.0)  # labels intern as (Y, X)
    assert rule_features(m) == {"f1"}
    for inst in d.instances:
        want = d.labels[inst.label]
        assert m.predict(inst)[0] == want


def test_classes_are_learned_rarest_first():
    rows, labels = [], []
    for tok, lab, k in [("a", "R", 3), ("b", "M", 6), ("c", "C", 9)]:
        rows += [[tok, "u" if i % 2 else "v"] for i in range(k)]
        labels += [lab] * k
    d = dataset_from_rows("tri", ["f1", "f2"], rows, labels)
    m = train_rules(d)
    assert m.to_text() == (
        "(f1 = 'a') => class=R\n"
        "(f1 = 'b') => class=M\n"
        "=> class=C\n"
    )


def test_default_rule_is_majority_of_uncovered():
    m = train_rules(exact_rule_dataset())
    default = m.rules[-1]
    assert default.conditions == ()
    assert m.labels[default.label] == "Y"
    assert default.distribution == (1.0, 0.0)


def test_single_label_data_yields_default_only():
    d = dataset_from_rows("s", ["f"], [["x"], ["y"]], ["only", "only"])
    m = train_rules(d)
    assert m.size == 1
    assert m.to_text() == "=> class=only\n"


def test_uninformative_feature_learns_no_rules():
    d = dataset_from_rows("c", ["f"], [["u"]] * 5, ["A", "A", "A", "B", "B"])
    m = train_rules(d)
    assert m.size == 1
    assert m.labels[m.rules[0].label] == "A"


def test_rule_text_quotes_interval_tokens():
    rows = [["(90-inf)"]] * 3 + [["(-inf-90]"]] * 6
    d = dataset_from_rows("iv", ["input16"], rows, ["8"] * 3 + ["1"] * 6)
    m = train_rules(d)
    assert m.to_text() == "(input16 = '(90-inf)') => class=8\n=> class=1\n"


def test_prediction_is_total_and_first_match_wins():
    d = dataset_from_rows(
        "t", ["f", "g"], [["x", "u"], ["y", "v"]], ["A", "B"]
    )
    m = RuleModel(
        rules=(
            Rule((("f", "x"),), 0, (1.0, 0.0)),
            Rule((("g", "u"),), 1, (0.0, 1.0)),
            Rule((), 1, (0.25, 0.75)),
        ),
        labels=d.labels,
        features=d.features,
    )
    assert m.predict(d.instances[0]) == ("A", (1.0, 0.0))  # both match, first wins
    xu = Instance((d.features[0].values.index("y"), d.features[1].values.index("u")), 0, 1.0)
    assert m.predict(xu) == ("B", (0.0, 1.0))
    assert m.predict(d.instances[1]) == ("B", (0.25, 0.75))  # default
    assert m.predict(Instance((MISSING, MISSING), 0, 1.0)) == ("B", (0.25, 0.75))


def test_rule_lists_are_well_formed(make_dataset):
    for seed in range(5):
        d = make_dataset(seed, n=50, n_features=4)
        m = train_rules(d)
        assert m.size == len(m.rules) >= 1
        assert m.rules[-1].conditions == ()
        for rule in m.rules[:-1]:
            assert len(rule.conditions) >= 1
            names = [f for f, _ in rule.conditions]
            assert len(set(names)) == len(names)
        for rule in m.rules:
            assert 0 <= rule.label < len(d.labels)
            assert sum(rule.distribution) == pytest.approx(1.0, abs=1e-9)
        for inst in d.instances:
            label, dist = m.predict(inst)
            assert label in d.labels and len(dist) == len(d.labels)


def test_a_precision_that_underflows_is_no_candidate():
    # a='x' covers 5e-324 of the target class against 12.0 of the other: its
    # precision rounds to 0, so it is skipped as if it covered no target rows
    rows = [["y"], ["x"]] + [["x"]] * 6 + [["y"]] * 2
    labels = ["1", "1"] + ["0"] * 6 + ["1"] * 2
    d = dataset_from_rows("r", ["a"], rows, labels, weights=[1.0, 5e-324] + [2.0] * 6 + [1.0] * 2)
    model = train_rules(d)
    assert [r.conditions for r in model.rules] == [(("a", "y"),), ()]
    assert [model.labels[r.label] for r in model.rules] == ["1", "0"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(MISSING, 6), max_size=120)
       | st.lists(st.integers(MISSING, 10**6), max_size=120, unique=True))
def test_row_masks_match_a_per_row_oracle(keys):
    oracle: dict[int, int] = {}
    for i, k in enumerate(keys):
        oracle[k] = oracle.get(k, 0) | 1 << i
    assert list(classifiers._row_masks(tuple(keys)).items()) == sorted(oracle.items())


def test_row_masks_memory_is_linear_in_the_rows():
    keys = tuple(range(MISSING, 7999))  # 8000 rows, each its own key
    tracemalloc.start()
    try:
        masks = classifiers._row_masks(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks == {k: 1 << i for i, k in enumerate(keys)}
    assert peak < 16e6  # one 8000-byte digit buffer per key held at once is 64 MB


def test_prune_split_can_be_disabled():
    m = train_rules(exact_rule_dataset(), prune_fraction=0.0)
    assert m.to_text() == "(f1 = 'a') => class=X\n=> class=Y\n"


def test_rules_argument_validation():
    d = exact_rule_dataset()
    with pytest.raises(ConfigError):
        train_rules(d, prune_fraction=-0.1)
    with pytest.raises(ConfigError):
        train_rules(d, prune_fraction=1.0)
    for bad in (True, "0.5"):
        with pytest.raises(ConfigError, match=f"^prune_fraction must be a number, got {bad!r}$"):
            train_rules(d, prune_fraction=bad)
    empty = dataset_from_rows("e", ["f"], [], [])
    with pytest.raises(DataError):
        train_rules(empty)


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------


def test_learner_spec_routes_and_forwards_knobs():
    d = interaction_dataset()
    tree = LearnerSpec("tree", min_leaf=1, cf=1.0).train(d)
    assert isinstance(tree, TreeModel) and tree.size == 7
    rules = LearnerSpec("rules").train(exact_rule_dataset())
    assert isinstance(rules, RuleModel) and rules.size == 2
    assert LearnerSpec().kind == "tree"
    with pytest.raises(ConfigError):
        LearnerSpec("forest")


def test_model_size_dispatch():
    d = three_leaf_dataset()
    t = train_tree(d, min_leaf=1, cf=1.0)
    assert t.size == 4
    m = train_rules(exact_rule_dataset())
    assert m.size == 2
    single = train_tree(dataset_from_rows("s", ["f"], [["x"]], ["l"]))
    assert single.size == 1
