"""One shape rule for rows: Rows.of gathers Instance objects into columns
and checks each row's slot count, for Dataset(...) and both models'
predict and predict_ids; Dataset._validate checks the columns.

The oracle below is the row-at-a-time check the column check replaced,
kept verbatim: on rows of the right width, both raise the same message.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import reduce
from itertools import repeat
from operator import add, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import MISSING, DataError, Dataset, Feature, Instance, train_rules, train_tree
from valsel.data import Rows


# --- the oracle: the previous fast check and row walk, verbatim -------------


def oracle_weight_fault(weights):
    if set(map(type, weights)) <= {int, float}:
        with suppress(OverflowError):  # an int past the float range is found below
            if all(map(le, repeat(0.0), weights)) and math.isfinite(reduce(add, weights, 0.0)):
                return None
    for i, w in enumerate(weights):
        if type(w) not in (int, float):
            return i, DataError(f"instance {i} has weight {w!r}, which is not a number")
        with suppress(OverflowError):
            if 0.0 <= w and math.isfinite(w):
                continue
        kind = "infinite" if w > 0.0 else "negative or NaN"
        return i, DataError(f"instance {i} has {kind} weight")
    return len(weights), DataError("instance weights add up to more than the largest float")


def oracle_check_rows(features, labels, instances) -> None:
    arity = len(features)
    bad_weight, error = oracle_weight_fault([inst.weight for inst in instances]) or (None, None)
    for i, inst in enumerate(instances):
        if len(inst.slots) != arity:
            raise DataError(f"instance {i} has {len(inst.slots)} slots, expected {arity}")
        for x, z in enumerate(inst.slots):
            if z != MISSING and not 0 <= z < len(features[x].values):
                raise DataError(
                    f"instance {i} references unknown value id {z} "
                    f"of feature {features[x].name!r}"
                )
        if not 0 <= inst.label < len(labels):
            raise DataError(f"instance {i} references unknown label id {inst.label}")
        if i == bad_weight:
            raise error
    if error:
        raise error


def oracle_validate(features, labels, instances) -> None:
    rows = Rows(list(zip(*(i.slots for i in instances))) or [()] * len(features),
                [i.label for i in instances], [i.weight for i in instances])
    if not rows:
        return
    if not labels:
        raise DataError("dataset with instances must declare at least one label")
    if not (
        len(rows.columns) == len(features)
        and all(MISSING <= min(col) and max(col) < len(f.values)
                for f, col in zip(features, rows.columns))
        and 0 <= min(rows.label_ids) and max(rows.label_ids) < len(labels)
        and oracle_weight_fault(rows.weights) is None
    ):
        oracle_check_rows(features, labels, instances)


# --- the differential --------------------------------------------------------

WEIGHTS = st.one_of(
    st.floats(0.0, 10.0),
    st.sampled_from([1.0, 1, 0, -0.0, -1.0, math.nan, math.inf, 1e308, 10**400, -(10**400),
                     "1", None, True]),
)


@st.composite
def equal_width_rows(draw):
    """Features of 1-3 values, labels (maybe none), and 0-6 rows of as many
    slots as features, with ids, labels and weights in and out of range."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=3))
    features = tuple(Feature(f"f{x}", tuple(map(str, range(k)))) for x, k in enumerate(sizes))
    labels = tuple(f"c{k}" for k in range(draw(st.integers(0, 3))))
    n = draw(st.integers(0, 6))
    instances = [
        Instance(tuple(draw(st.integers(-3, k + 1)) for k in sizes),
                 draw(st.integers(-2, len(labels) + 1)), draw(WEIGHTS))
        for _ in range(n)
    ]
    return features, labels, instances


def raised(build) -> str | None:
    try:
        build()
    except DataError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(equal_width_rows())
def test_the_column_check_raises_what_the_row_walk_raised(case):
    features, labels, instances = case
    want = raised(lambda: oracle_validate(features, labels, instances))
    assert raised(lambda: Dataset(features, instances, labels)) == want
    assert raised(lambda: Dataset(features, Rows.of(instances, len(features)), labels)) == want


# --- the holes the rule closes ------------------------------------------------

F = (Feature("a", ("0", "1")), Feature("b", ("0", "1")))
L = ("x", "y")


def test_rows_whose_columns_do_not_match_the_label_ids_are_refused():
    with pytest.raises(DataError, match="2 slots of feature 'a' for 3 label ids"):
        Dataset(F, Rows([(0, 1), (0, 1)], (0, 1, 0), (1.0,) * 3), L)
    with pytest.raises(DataError, match="1 weights for 2 label ids"):
        Dataset(F, Rows([(0, 1), (0, 1)], (0, 1), (1.0,)), L)
    with pytest.raises(DataError, match="instance 0 has 1 slots, expected 2"):
        Dataset(F, Rows([(0, 1)], (0, 1), (1.0, 1.0)), L)


@pytest.mark.parametrize("bad", [0.5, None, "0", True])
def test_an_id_that_is_not_an_int_is_a_data_error(bad):
    with pytest.raises(DataError, match=f"instance 1 references unknown value id {bad!r} "
                                        "of feature 'b'"):
        Dataset(F, [Instance((0, 0), 0), Instance((1, bad), 0)], L)
    with pytest.raises(DataError, match=f"instance 1 references unknown label id {bad!r}"):
        Dataset(F, [Instance((0, 0), 0), Instance((1, 1), bad)], L)


def test_a_ragged_row_is_a_shape_fault_before_earlier_value_faults():
    with pytest.raises(DataError, match="instance 1 has 1 slots, expected 2"):
        Dataset(F, [Instance((5, 0), 0), Instance((0,), 0)], L)
    with pytest.raises(DataError, match="instance 1 has 3 slots, expected 2"):
        Rows.of([Instance((0, 0), 0), Instance((0, 0, 0), 0)], 2)


def test_no_instance_gives_a_column_per_slot():
    assert Rows.of([], 3).columns == ((), (), ())
    assert Dataset(F, [], L).instances.columns == ((), ())


@pytest.mark.parametrize("learn", [train_tree, train_rules])
@pytest.mark.parametrize("slots", [(0,), (0, 0, 1)])
def test_predict_refuses_a_row_of_another_slot_count(learn, slots):
    d = Dataset(F, [Instance((0, 0), 0), Instance((1, 1), 1), Instance((0, 1), 0),
                    Instance((1, 0), 1)] * 3, L)
    model, inst = learn(d), Instance(slots, 0)
    with pytest.raises(DataError, match=f"instance 0 has {len(slots)} slots, expected 2"):
        model.predict(inst)
    with pytest.raises(DataError, match=f"instance 0 has {len(slots)} slots, expected 2"):
        model.predict(inst, d)
    with pytest.raises(DataError, match=f"instance 1 has {len(slots)} slots, expected 2"):
        model.predict_ids([d.instances[0], inst], d)
    with pytest.raises(DataError, match="instance 0 has 2 slots, expected 3"):
        model.predict_ids(d.instances, Dataset(F + (Feature("c", ("0",)),), [], L))
