"""Metamorphic properties of the learners, the metric table and the filters.

Each property changes a dataset in a way the result must not see:

- a row of weight 2.0 trains the same tree as that row written twice;
- an extra row of weight 0.0, with any slots and any label, trains the
  same tree;
- permuting the rows trains the same tree and gives the same metric
  tables under both iotas, or the same error;
- renaming every value token and label, ids kept in order, keeps the
  trees' and the rule list's sizes, the metric numbers and what pvs and
  pvs_plus remove.

Trees are compared at cf 0.25 and 1.0. Every variant is built over the
original schema (Dataset.take, with_instances, Dataset(...)), so value and
label ids stay fixed: rebuilding a dataset from permuted token rows would
intern tokens in a new first-appearance order, which legitimately
reorders a tree's branches.

The learner adds weights left to right, so a row permutation, or a row
weight split in two, may round a sum differently: 0.1 + 0.1 + 0.1 + 0.7
is 1.0 in one order and 0.9999999999999999 in another, which can flip a
leaf's label or a min_leaf stop, and missing-value fan-out shares round
alike. Those two properties therefore draw data where every sum is
exact: no missing slots, and unit or dyadic weights. Adding 0.0 is
exact, so the weight-0 property keeps missing slots and weights such as
0.1.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import (
    Dataset,
    DataError,
    Feature,
    VSConfig,
    compute_stats,
    pvs,
    pvs_plus,
    train_rules,
    train_tree,
)
from valsel.data import MISSING, Rows
from valsel.metrics import IOTAS

from conftest import random_dataset

CFS = (0.25, 1.0)
INEXACT = (0.7, 1.0, 1.3, 0.1)
DYADIC = (0.25, 0.5, 1.0, 1.5)


@st.composite
def datasets(draw, missing=True, weights=INEXACT):
    """A small seeded dataset, with or without 10% missing slots unless
    not missing; rows weigh 1.0 or, unless weights is None, may each weigh
    one of weights."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = random_dataset(
        seed,
        n=draw(st.integers(2, 60)),
        n_features=draw(st.integers(1, 4)),
        n_labels=draw(st.integers(2, 3)),
        n_values=draw(st.integers(2, 4)),
        missing_rate=draw(st.sampled_from([0.0, 0.1])) if missing else 0.0,
    )
    if weights is None or not draw(st.booleans()):
        return d
    rng = random.Random(seed)
    return reweighted(d, [rng.choice(weights) for _ in d.instances])


def reweighted(d, weights):
    rows = d.instances
    return d.with_instances(Rows(rows.columns, rows.label_ids, weights))


def tree_texts(d):
    return [train_tree(d, cf=cf).to_text() for cf in CFS]


def stats_or_error(d):
    """compute_stats(d), or the DataError it raises as (type, message)."""
    try:
        return compute_stats(d)
    except DataError as exc:
        return type(exc), str(exc)


def stats_tables(d):
    stats = stats_or_error(d)
    return stats if isinstance(stats, tuple) else [stats.format_table(iota) for iota in IOTAS]


@settings(max_examples=150, deadline=None)
@given(datasets(missing=False, weights=None), st.data())
def test_a_row_of_weight_two_trains_like_the_row_written_twice(d, data):
    n = len(d.instances)
    i = data.draw(st.integers(0, n - 1))
    doubled = reweighted(d, [2.0 if j == i else 1.0 for j in range(n)])
    written_twice = d.take([*range(i + 1), i, *range(i + 1, n)])
    assert tree_texts(doubled) == tree_texts(written_twice)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.data())
def test_an_extra_row_of_weight_zero_leaves_the_tree_alone(d, data):
    rows = d.instances
    slots = [data.draw(st.integers(MISSING, len(f.values) - 1)) for f in d.features]
    label = data.draw(st.integers(0, len(d.labels) - 1))
    extra = d.with_instances(Rows(
        [(*col, z) for col, z in zip(rows.columns, slots)],
        (*rows.label_ids, label),
        (*rows.weights, 0.0),
    ))
    assert tree_texts(extra) == tree_texts(d)


@settings(max_examples=150, deadline=None)
@given(datasets(missing=False, weights=DYADIC), st.randoms(use_true_random=False))
def test_a_row_permutation_changes_neither_tree_nor_stats(d, rng):
    perm = list(range(len(d.instances)))
    rng.shuffle(perm)
    permuted = d.take(perm)
    assert tree_texts(permuted) == tree_texts(d)
    assert stats_tables(permuted) == stats_tables(d)


def renamed(d):
    """d with value id z of a k-value feature named t{k - z} and label id l
    of L named c{L - l}: every token changes and sorts against id order."""
    features = [
        Feature(f.name, [f"t{len(f.values) - z}" for z in range(len(f.values))], f.kind)
        for f in d.features
    ]
    labels = [f"c{len(d.labels) - l}" for l in range(len(d.labels))]
    return Dataset(features, d.instances, labels, d.name)


def token_blind(d, cfg):
    """What d's models, metric numbers and filters show with tokens left out."""
    trees = [train_tree(d, cf=cf) for cf in CFS]
    seen = [[(t.size, t.to_text().count("\n")) for t in trees], train_rules(d).size]
    stats = stats_or_error(d)
    if isinstance(stats, tuple):
        return seen + [stats]
    numbers = [
        (s.feature, s.value, s.support, s.class_probs, s.weight, s.entropy, s.info_gain,
         s.norm_info_gain)
        for s in stats.entries()
    ]
    seen += [stats.dataset_confusion, numbers]
    for select in (pvs, pvs_plus):
        out = select(d, cfg, stats)
        seen += [out.removed_value_mask, out.removed_instances]
    return seen


@settings(max_examples=150, deadline=None)
@given(datasets(), st.sampled_from(IOTAS), st.sampled_from([0.5, 1.0]), st.integers(0, 99))
def test_renaming_tokens_changes_no_size_number_or_removal(d, iota, epsilon, seed):
    cfg = VSConfig(iota, epsilon, seed)
    assert token_blind(renamed(d), cfg) == token_blind(d, cfg)
