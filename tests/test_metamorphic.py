"""Metamorphic properties of the tree learner and the metric table.

Each property changes a dataset in a way the result must not see:

- a row of weight 2.0 trains the same tree as that row written twice;
- an extra copy of a row's slots, at weight 0.0, trains the same tree;
- permuting the rows trains the same tree and gives the same metric
  tables under both iotas.

Trees are compared by their text at cf 0.25 and 1.0. Every variant is
built over the original schema (Dataset.take, with_instances), so value
and label ids stay fixed: rebuilding a dataset from permuted token rows
would intern tokens in a new first-appearance order, which legitimately
reorders a tree's branches.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import compute_stats, train_tree
from valsel.data import Rows
from valsel.metrics import IOTAS

from conftest import random_dataset

CFS = (0.25, 1.0)


@st.composite
def datasets(draw, unit_weights=False):
    """A small seeded dataset, with or without missing slots; unless
    unit_weights, rows may weigh 0.7, 1.3 or 0.1 instead of 1.0."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = random_dataset(
        seed,
        n=draw(st.integers(2, 60)),
        n_features=draw(st.integers(1, 4)),
        n_labels=draw(st.integers(2, 3)),
        n_values=draw(st.integers(2, 4)),
        missing_rate=draw(st.sampled_from([0.0, 0.1])),
    )
    if unit_weights or not draw(st.booleans()):
        return d
    rng = random.Random(seed)
    weights = [rng.choice((0.7, 1.0, 1.3, 0.1)) for _ in d.instances]
    return reweighted(d, weights)


def reweighted(d, weights):
    rows = d.instances
    return d.with_instances(Rows(rows.columns, rows.label_ids, weights))


def tree_texts(d):
    return [train_tree(d, cf=cf).to_text() for cf in CFS]


def stats_tables(d):
    stats = compute_stats(d)
    return [stats.format_table(iota) for iota in IOTAS]


@settings(max_examples=150, deadline=None)
@given(datasets(unit_weights=True), st.data())
def test_a_row_of_weight_two_trains_like_the_row_written_twice(d, data):
    n = len(d.instances)
    i = data.draw(st.integers(0, n - 1))
    doubled = reweighted(d, [2.0 if j == i else 1.0 for j in range(n)])
    written_twice = d.take([*range(i + 1), i, *range(i + 1, n)])
    assert tree_texts(doubled) == tree_texts(written_twice)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.data())
def test_an_extra_row_of_weight_zero_leaves_the_tree_alone(d, data):
    # the extra row repeats an existing row's slots under any label: a
    # weight-0 row holding a value that no row at a node holds would give
    # that value an empty branch there
    rows = d.instances
    j = data.draw(st.integers(0, len(rows) - 1))
    label = data.draw(st.integers(0, len(d.labels) - 1))
    extra = d.with_instances(Rows(
        [(*col, col[j]) for col in rows.columns],
        (*rows.label_ids, label),
        (*rows.weights, 0.0),
    ))
    assert tree_texts(extra) == tree_texts(d)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.randoms(use_true_random=False))
def test_a_row_permutation_changes_neither_tree_nor_stats(d, rng):
    perm = list(range(len(d.instances)))
    rng.shuffle(perm)
    permuted = d.take(perm)
    assert tree_texts(permuted) == tree_texts(d)
    assert stats_tables(permuted) == stats_tables(d)
