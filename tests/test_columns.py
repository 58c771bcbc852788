"""The columnar Dataset layout: what it holds per row, and its row view.

A Dataset keeps one tuple of value ids per feature plus label-id and
weight tuples; Dataset.instances is a Rows view that builds Instance
objects only when indexed or iterated, and never keeps them.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import random
import tracemalloc

import pytest

from valsel import MISSING, DataError, Dataset, Instance, dataset_from_rows, discretize
from valsel.data import Rows

from conftest import build_samples


@pytest.fixture
def built(monkeypatch):
    """A list that gets one entry per Instance constructed from here on."""
    made = []
    post_init = Instance.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Instance, "__post_init__", counted)
    return made


def wide_tokens(n: int = 20000, width: int = 8):
    """n rows of width numeric tokens drawn from ten per column, so the
    Feature tables are a few hundred bytes, and three labels."""
    rng = random.Random(3)
    pool = [[f"{x}.{k}" for k in range(10)] for x in range(width)]
    rows = [[rng.choice(pool[x]) if rng.random() > 0.05 else None for x in range(width)]
            for _ in range(n)]
    labels = [rng.choice(("a", "b", "c")) for _ in range(n)]
    return [f"x{x}" for x in range(width)], rows, labels


def held_bytes(build):
    """build() and the bytes its result holds once the call returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_dataset_and_its_discretization_hold_under_96_bytes_a_row():
    names, rows, labels = wide_tokens()
    n = len(rows)
    d, raw = held_bytes(lambda: dataset_from_rows("wide", names, rows, labels))
    assert len(d.instances) == n
    spec = discretize.fit(d, "frequency", 4)
    assert len(spec.cuts) == len(names)
    disc, derived = held_bytes(lambda: discretize.apply(spec, d))
    assert disc.features[0].values != d.features[0].values
    # a row of Instance objects held about 218 bytes at 8 features
    assert raw / n <= 96, raw / n
    assert derived / n <= 96, derived / n


def test_len_builds_no_instance(built):
    d = build_samples()
    assert len(d.instances) == 5
    assert len(dataclasses.replace(d, name="other").instances) == 5
    assert len(d.take([4, 0]).instances) == 2
    assert d.instances and not d.take([]).instances
    assert built == []


def test_indexing_and_iteration_build_rows_on_access_and_keep_none(built):
    d = build_samples()
    rows = d.instances
    first = rows[0]
    assert first == Instance((MISSING, 0, 0, 0), 0, 1.0)
    assert rows[-1] == rows[4] == Instance((0, 0, 2, MISSING), 0, 1.0)
    assert rows[0] is not first  # built again, not kept
    with pytest.raises(IndexError):
        rows[5]
    assert list(rows) == [rows[i] for i in range(5)]
    assert rows[1:4] == (rows[1], rows[2], rows[3])
    assert rows[::-2] == (rows[4], rows[2], rows[0])
    assert rows[1].label == 0 and rows[2].label == 1
    assert rows.count(rows[2]) == 1 and rows.index(rows[3]) == 3
    built.clear()
    assert [inst.slots for inst in rows] == list(rows.slot_tuples())
    assert len(built) == 5


def test_the_view_compares_equal_to_a_tuple_of_its_rows():
    d = build_samples()
    rows = d.instances
    assert rows == tuple(rows)
    assert tuple(rows) == rows
    assert rows != tuple(rows)[:-1]
    assert rows != tuple(rows)[::-1]
    assert rows != list(rows)  # a tuple of Instances, as instances was, never a list
    assert d.take([]).instances == ()
    assert d.take([2, 3]).instances == (rows[2], rows[3])
    assert d.take([2, 3]).instances == Rows.of([rows[2], rows[3]])
    reweighted = d.with_instances(Instance(i.slots, i.label, 2.0) for i in rows)
    assert reweighted.instances != rows


def test_replace_and_with_instances_keep_the_rows():
    d = build_samples()
    renamed = dataclasses.replace(d, name="other")
    assert renamed.name == "other" and renamed == d
    assert renamed.instances.columns is d.instances.columns  # shared, not copied
    back = d.with_instances(d.instances)
    assert back == d and back.fingerprint == d.fingerprint
    subset = d.with_instances([d.instances[i] for i in (4, 1)])
    assert subset == d.take([4, 1])
    assert subset.instances == (d.instances[4], d.instances[1])
    bad = Instance(d.instances[0].slots, len(d.labels))
    with pytest.raises(DataError, match="instance 2 references unknown label id 2"):
        d.with_instances([d.instances[0], d.instances[1], bad])


def test_take_gathers_rows_in_the_given_order():
    d = build_samples()
    for index in ([], [3], [4, 0], [1, 1, 2], list(range(5)), range(4, -1, -1)):
        got = d.take(index)
        assert got.instances == tuple(d.instances[i] for i in index)
        assert got.features is d.features and got.labels is d.labels
        got._validate()
    for empty in (d.take([]), d.with_instances([]), Dataset(d.features, (), d.labels)):
        assert empty.instances == () and empty.column(3) == ()
        assert len(empty.instances.columns) == len(d.features)


def test_derived_datasets_share_the_columns_they_do_not_change():
    d = build_samples()
    spec = discretize.DiscretizationSpec("binning", 2, {"f1": (0.0,)})
    disc = discretize.apply(spec, d)
    assert disc.instances.label_ids is d.instances.label_ids
    assert disc.instances.weights is d.instances.weights
    assert disc.column(1) is d.column(1)
    assert disc.column(0) != d.column(0)


def test_derived_keeps_row_order_under_drop():
    d = build_samples()
    d = Dataset(d.features, Rows(d.instances.columns, d.instances.label_ids,
                                 (0.5, 1.0, 2.0, 3.0, 4.0)), d.labels, d.name)
    columns = [tuple(reversed(col)) for col in d.instances.columns]
    got = d._derived(columns, drop=[3, 0, 3])
    keep = [1, 2, 4]
    assert got.instances.columns == tuple(tuple(col[i] for i in keep) for col in columns)
    assert got.instances.label_ids == tuple(d.instances.label_ids[i] for i in keep)
    assert got.instances.weights == tuple(d.instances.weights[i] for i in keep)
    assert (got.features, got.labels, got.name) == (d.features, d.labels, d.name)
    got._validate()


def test_derived_with_no_drop_shares_the_label_ids_and_weights():
    d = build_samples()
    got = d._derived(d.instances.columns)
    assert got.instances.label_ids is d.instances.label_ids
    assert got.instances.weights is d.instances.weights
    assert got.features is d.features and got == d


def test_derived_keeps_the_schema_unless_given_one_and_works_with_no_features():
    d = build_samples()
    assert d._derived(d.instances.columns, drop=[0]).features is d.features
    bare = d._derived([], features=[], drop=[1])
    assert bare.features == () and bare.instances.columns == ()
    assert len(bare.instances) == len(d.instances) - 1
    assert bare.instances.label_ids == d.instances.label_ids[:1] + d.instances.label_ids[2:]
    bare._validate()
    assert len(bare._derived([], drop=range(len(bare.instances))).instances) == 0


def test_a_dataset_pickles_with_its_rows():
    d = build_samples()
    back = pickle.loads(pickle.dumps(d))
    assert back == d and back.instances == d.instances
    assert back.fingerprint == d.fingerprint
