"""Differential test: the tree learner against the per-item original.

The functions train_tree, _added_errors, _leaf_errors, _estimated_errors
and _prune below are a verbatim copy of the tree learner that counts every
(item, feature) pair in a Python loop at every node, computes the normal
quantile on every _added_errors call, and keeps the training columns as
value-id lists. valsel.classifiers.train_tree must build the same
TreeModel (compared with ==, by its to_text() and by the repr of its root,
which shows dict order and every float to the bit) on seeded and
Hypothesis-drawn datasets with unit, dyadic and random weights, missing
slots that fan instances out, 1-4 labels and several min_leaf/cf values.
The oracle trains on the dataset less its weight-0 rows, which the
learner leaves out (see assert_same_tree).
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import (VSConfig, classifiers, compute_stats, dataset_from_rows, pvs, pvs_plus,
                    random_value_removal)
from valsel.classifiers import TREE_CF, TREE_MIN_LEAF, Leaf, Split, TreeModel, _argmax_low
from valsel.data import MISSING, Dataset, Instance
from valsel.errors import ConfigError, DataError
from valsel.metrics import entropy_bits

from conftest import n_leaves, random_dataset, split_features


# ---------------------------------------------------------------------------
# Reference oracle: the per-item learner, verbatim
# ---------------------------------------------------------------------------


def train_tree(d: Dataset, min_leaf: int = TREE_MIN_LEAF, cf: float = TREE_CF) -> TreeModel:
    """Grow and (for cf < 1) pessimistically prune a tree on d."""
    if min_leaf < 1:
        raise ConfigError(f"min_leaf must be >= 1, got {min_leaf}")
    if not 0.0 < cf <= 1.0:
        raise ConfigError(f"cf must lie in (0, 1], got {cf}")
    if not d.instances:
        raise DataError("cannot train a tree on an empty dataset")

    n_labels = len(d.labels)
    cols = [d.column(x) for x in range(len(d.features))]
    ys = [inst.label for inst in d.instances]
    ws = [inst.weight for inst in d.instances]

    def grow(items, avail):
        counts = [0.0] * n_labels
        for i, w in items:
            counts[ys[i]] += w
        total = sum(counts)
        label = _argmax_low(counts)
        if (
            total < 2 * min_leaf
            or sum(1 for c in counts if c > 0) <= 1
            or not avail
        ):
            return Leaf(tuple(counts), label)

        best = None  # (ratio, x, val_counts, known_w)
        for x in sorted(avail):
            col = cols[x]
            val_counts: dict[int, list[float]] = {}
            known_w = 0.0
            for i, w in items:
                z = col[i]
                if z == MISSING:
                    continue
                per = val_counts.setdefault(z, [0.0] * n_labels)
                per[ys[i]] += w
                known_w += w
            if known_w <= 0 or len(val_counts) < 2:
                continue
            known_counts = [0.0] * n_labels
            info = 0.0
            split_info = 0.0
            for per in val_counts.values():
                vw = sum(per)
                for l in range(n_labels):
                    known_counts[l] += per[l]
                info += (vw / known_w) * entropy_bits(per)
                q = vw / total
                if q > 0:
                    split_info -= q * math.log2(q)
            miss_w = total - known_w
            if miss_w > 0:
                q = miss_w / total
                split_info -= q * math.log2(q)
            gain = (known_w / total) * (entropy_bits(known_counts) - info)
            if gain <= 1e-12 or split_info <= 0:
                continue
            ratio = gain / split_info
            if best is None or ratio > best[0] + 1e-12:
                best = (ratio, x, val_counts, known_w)
        if best is None:
            return Leaf(tuple(counts), label)

        _, x, val_counts, known_w = best
        col = cols[x]
        buckets: dict[int, list] = {z: [] for z in sorted(val_counts)}
        missing_items = []
        for i, w in items:
            z = col[i]
            if z == MISSING:
                missing_items.append((i, w))
            else:
                buckets[z].append((i, w))
        children: dict[str, Leaf | Split] = {}
        branch_weights: dict[str, float] = {}
        sub_avail = avail - {x}
        for z, child_items in buckets.items():
            share = sum(val_counts[z]) / known_w
            if missing_items:
                child_items = child_items + [
                    (i, w * share) for i, w in missing_items if w * share > 1e-12
                ]
            tok = d.features[x].values[z]
            children[tok] = grow(child_items, sub_avail)
            branch_weights[tok] = share
        return Split(x, d.features[x].name, children, branch_weights, tuple(counts), label)

    items = [(i, w) for i, w in enumerate(ws)]
    root = grow(items, set(range(len(d.features))))
    if cf < 1.0:
        root = _prune(root, cf)
    return TreeModel(root, d.labels, d.features)


def _added_errors(n: float, e: float, cf: float) -> float:
    """Upper-confidence-bound extra errors for e observed errors in n cases."""
    if cf >= 0.5:
        return 0.0
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (_added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    r = (
        f
        + z * z / (2 * n)
        + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
    ) / (1.0 + z * z / n)
    return r * n - e


def _leaf_errors(node, cf) -> float:
    """Pessimistic error estimate of node collapsed to a leaf."""
    total = sum(node.counts)
    errors = total - node.counts[node.label]
    return errors + _added_errors(total, errors, cf)


def _estimated_errors(node, cf) -> float:
    if isinstance(node, Leaf):
        return _leaf_errors(node, cf)
    return sum(_estimated_errors(c, cf) for c in node.children.values())


def _prune(node, cf):
    if isinstance(node, Leaf):
        return node
    node.children = {t: _prune(c, cf) for t, c in node.children.items()}
    if _leaf_errors(node, cf) <= _estimated_errors(node, cf) + 1e-9:
        return Leaf(node.counts, node.label)
    return node


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

WEIGHTS = {
    "unit": lambda rng: 1.0,
    "dyadic": lambda rng: rng.choice([0.25, 0.5, 1.0, 1.5, 2.0]),
    "random": lambda rng: 0.0 if rng.random() < 0.05 else rng.uniform(0.0, 3.0),
}

KNOBS = [(1, 1.0), (2, 0.25), (1, 0.05), (3, 0.5), (2, 0.9)]


def reweighted(d: Dataset, kind: str, seed: int) -> Dataset:
    rng = random.Random(seed)
    return d.with_instances(
        Instance(inst.slots, inst.label, WEIGHTS[kind](rng)) for inst in d.instances
    )


def assert_same_tree(d: Dataset, min_leaf: int, cf: float) -> None:
    # The learner leaves weight-0 rows out, so that a value only they hold
    # gets no empty branch; the oracle gets the dataset without them, unless
    # every row weighs 0 (both then give one all-zero leaf).
    positive = [i for i, w in enumerate(d.instances.weights) if w > 0.0]
    want = train_tree(d.take(positive) if positive else d, min_leaf, cf)
    got = classifiers.train_tree(d, min_leaf, cf)
    assert got == want
    assert got.to_text() == want.to_text()
    assert repr(got.root) == repr(want.root)


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("n_labels", [1, 2, 3, 4])
@pytest.mark.parametrize("missing_rate", [0.0, 0.1, 0.35])
def test_matches_oracle_on_seeded_data(weights, n_labels, missing_rate):
    for seed in range(3):
        d = random_dataset(
            seed, n=160, n_features=5, n_labels=n_labels, n_values=4, missing_rate=missing_rate
        )
        d = reweighted(d, weights, seed)
        for min_leaf, cf in KNOBS:
            assert_same_tree(d, min_leaf, cf)


def test_matches_oracle_below_fan_outs():
    # Every feature misses often, so most nodes below the root hold fanned-out
    # fractional items, and unit-weight nodes split on features with and
    # without missing slots.
    for seed in range(6):
        d = random_dataset(seed, n=300, n_features=6, n_labels=3, n_values=3, missing_rate=0.5)
        for min_leaf, cf in KNOBS:
            assert_same_tree(d, min_leaf, cf)


@st.composite
def tree_inputs(draw):
    n_features = draw(st.integers(1, 4))
    n_labels = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    tokens = [None, "a", "b", "c", "d"][: draw(st.integers(2, 5))]
    rows = [[draw(st.sampled_from(tokens)) for _ in range(n_features)] for _ in range(n)]
    domain = tuple(str(c) for c in range(n_labels))
    labels = [draw(st.sampled_from(domain)) for _ in range(n)]
    weight = st.sampled_from(
        [
            st.just(1.0),
            st.sampled_from([0.25, 0.5, 1.0, 2.0]),
            st.floats(0.0, 4.0, allow_subnormal=False),
        ]
    )
    w = draw(weight)
    weights = [draw(w) for _ in range(n)]
    d = dataset_from_rows(
        "h", [f"f{x}" for x in range(n_features)], rows, labels,
        label_domain=domain, weights=weights,
    )
    min_leaf = draw(st.integers(1, 3))
    cf = draw(st.sampled_from([0.01, 0.1, 0.25, 0.49, 0.5, 1.0]))
    return d, min_leaf, cf


@settings(max_examples=400, deadline=None)
@given(tree_inputs())
def test_matches_oracle_on_drawn_data(case):
    d, min_leaf, cf = case
    assert_same_tree(d, min_leaf, cf)


def test_oracle_rejects_what_train_tree_rejects(samples):
    empty = samples.with_instances([])
    for bad in ((samples, 0, 0.25), (samples, 2, 0.0), (samples, 2, 1.5), (empty, 2, 0.25)):
        with pytest.raises((ConfigError, DataError)) as want:
            train_tree(*bad)
        with pytest.raises(want.type):
            classifiers.train_tree(*bad)


def filter_outputs():
    """Training sets the pvs, pvs_plus and random_value filters really produce.

    With the entropy metric pvs drops most values from the schema, leaving
    features with 0 or 1 values, and pvs_plus clears most slots, leaving
    columns all missing or with one observed value below a fan-out. With
    the infogain metric both keep deep trees whose nodes fan out again and
    again. Every other output gets random weights, about 5% of them zero.
    random_value_removal at rates 0.1 and 0.3 clears slots at random, so
    unit nodes wrap their items where a split's feature is missing; each
    output comes unit and with random weights. Last comes a dataset with
    every weight 2.0 and no missing slot, whose splits never fan out and
    so hand their counts down at weighted nodes.
    """
    k = 0
    for seed in range(3):
        d = random_dataset(seed, n=400, n_features=6, n_labels=3, n_values=4, missing_rate=0.1)
        stats = compute_stats(d)
        for iota in ("entropy", "infogain"):
            for eps in (0.8, 1.0):
                cfg = VSConfig(iota=iota, epsilon=eps, seed=seed)
                for select in (pvs, pvs_plus):
                    filtered = select(d, cfg, stats).filtered
                    k += 1
                    yield reweighted(filtered, "random", seed) if k % 2 else filtered
        for rate in (0.1, 0.3):
            cleared = random_value_removal(d, rate, seed)
            yield cleared
            yield reweighted(cleared, "random", seed)
    dense = random_dataset(0, n=400, n_features=6, n_labels=3, n_values=4, missing_rate=0.0)
    yield dense.with_instances(Instance(i.slots, i.label, 2.0) for i in dense.instances)


def test_matches_oracle_on_filter_outputs():
    cases = list(filter_outputs())
    for d in cases:
        for min_leaf, cf in KNOBS:
            assert_same_tree(d, min_leaf, cf)
    # The cases hold features with 0 or 1 schema values (no key column),
    # features with values in the schema but 0 or 1 of them observed, zero
    # weights, and splits below a fan-out that fan out again.
    n_values = [len(f.values) for d in cases for f in d.features]
    assert 0 in n_values and 1 in n_values
    observed = [
        (len(f.values), len({inst.slots[x] for inst in d.instances} - {MISSING}))
        for d in cases for x, f in enumerate(d.features)
    ]
    assert (4, 0) in observed and (4, 1) in observed
    assert any(inst.weight == 0.0 for d in cases for inst in d.instances)
    # Splits that fan out below a fan-out, unit nodes that wrap their items
    # because the split's feature is missing there, and splits at weighted
    # nodes that hand their counts down because nothing fans out.
    nested = wrapped = handed_down = 0
    for d in cases:
        unit = set(d.instances.weights) == {1.0}
        stack = [(classifiers.train_tree(d, 1, 1.0).root, d.instances, False)]
        while stack:
            node, rows, below_fan_out = stack.pop()
            if isinstance(node, Split):
                fanned = [inst for inst in rows if inst.slots[node.feature] == MISSING]
                nested += bool(fanned) and rows is not d.instances
                wrapped += bool(fanned) and unit and not below_fan_out
                handed_down += not fanned and not unit
                for tok, child in node.children.items():
                    z = d.features[node.feature].values.index(tok)
                    kept = [inst for inst in rows if inst.slots[node.feature] in (z, MISSING)]
                    stack.append((child, kept, below_fan_out or bool(fanned)))
    assert nested >= 20 and wrapped >= 10 and handed_down >= 100


def recursive_counts(node) -> tuple[int, int, set[str]]:
    """Node count, leaf count and split feature names of the tree under node."""
    if isinstance(node, Leaf):
        return 1, 1, set()
    size, leaves, names = 1, 0, {node.name}
    for child in node.children.values():
        s, l, n = recursive_counts(child)
        size, leaves, names = size + s, leaves + l, names | n
    return size, leaves, names


def test_size_leaves_and_split_features_match_a_recursive_count():
    shapes = set()
    for d in filter_outputs():
        for min_leaf, cf in KNOBS:
            t = classifiers.train_tree(d, min_leaf, cf)
            assert (t.size, n_leaves(t), split_features(t)) == recursive_counts(t.root)
            shapes.add((t.size > 1, len(split_features(t)) > 1))
    assert shapes == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("cf", [0.25, 0.1])
def test_matches_oracle_on_dense_data_where_nodes_collapse_early(cf, monkeypatch):
    # Ten values a feature and no missing slot: pruning throws away most of what
    # growth would make, so nodes collapse before all their children are grown.
    seen = []
    collapses = classifiers._collapses

    def spy(*args):
        out = collapses(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(classifiers, "_collapses", spy)
    d = random_dataset(0, n=2000, n_features=6, n_labels=3, n_values=10, missing_rate=0.0)
    assert_same_tree(d, TREE_MIN_LEAF, cf)
    assert True in seen
