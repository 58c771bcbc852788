"""removal_counts: what any filter took, read from the dataset before and after."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import (
    FILTERS,
    MISSING,
    DataError,
    ExperimentConfig,
    LearnerSpec,
    MetricTable,
    RemovalCounts,
    VSConfig,
    compute_stats,
    dataset_from_rows,
    drop_columns,
    pvs,
    pvs_plus,
    removal_counts,
)
from valsel.metrics import IOTAS

from conftest import separable_dataset


def removal_oracle(before, after) -> RemovalCounts:
    """The counts of a walk over each dataset's Instance objects, one row at
    a time, keeping per feature name its observed slot count and tokens."""

    def observed(d):
        seen = {f.name: [0, set()] for f in d.features}
        for inst in d.instances:
            for f, z in zip(d.features, inst.slots):
                if z != MISSING:
                    seen[f.name][0] += 1
                    seen[f.name][1].add(f.values[z])
        return seen

    was, now = observed(before), observed(after)
    left = [now.get(f.name, [0, set()]) for f in before.features]
    names = [f.name for f in before.features]
    return RemovalCounts(
        rows_deleted=len(before.instances) - len(after.instances),
        slots_cleared=tuple(was[name][0] - k for name, (k, _) in zip(names, left)),
        values_emptied=tuple(len(was[name][1] - tokens) for name, (_, tokens) in zip(names, left)),
        features_emptied=tuple(x for x, (k, _) in enumerate(left) if k == 0),
    )


def test_counts_by_hand():
    d = dataset_from_rows("t", ["a", "b", "c"],
                          [["x", "p", None], ["y", "p", None], ["x", None, None]], ["0", "1", "0"])
    # Row 1 goes, feature b is dropped and c never had an observed slot.
    assert removal_counts(d, drop_columns(d.take([0, 2]), ["b"])) == RemovalCounts(
        rows_deleted=1, slots_cleared=(1, 2, 0), values_emptied=(1, 1, 0), features_emptied=(1, 2))
    # With no row left, every feature is emptied.
    assert removal_counts(d, d.take([])) == RemovalCounts(3, (3, 2, 0), (2, 1, 0), (0, 1, 2))
    assert removal_counts(d, d) == RemovalCounts(0, (0, 0, 0), (0, 0, 0), (2,))


def test_values_are_matched_by_token_where_pvs_renumbers_them():
    d = separable_dataset(0, n=120, noise=0.2)
    stats = compute_stats(d)
    for filt in (pvs, pvs_plus):
        out = filt(d, VSConfig(epsilon=1.0), stats)
        counts = removal_counts(d, out.filtered)
        assert counts == removal_oracle(d, out.filtered)
        assert counts.features_emptied == out.removed_features
        assert counts.rows_deleted == len(out.removed_instances)
        if filt is pvs:  # the values its draws removed, and no others, are emptied
            assert counts.values_emptied == tuple(map(sum, out.removed_value_mask))


@st.composite
def filter_runs(draw):
    """A method of FILTERS with knobs it reads, and a dataset of 0-4 features
    and up to 25 rows: missing slots, weight-0 rows, and maybe one feature
    with no observed slot. Rates of 1.0 and small epsilons delete every row."""
    method = draw(st.sampled_from(sorted(FILTERS)))
    n_features = draw(st.integers(0, 4))
    names = [f"f{x}" for x in range(n_features)]
    blank = draw(st.integers(-1, n_features - 1))  # the feature left all missing; -1: none
    n = draw(st.integers(2 if method == "misclassified" else 0, 25))
    rows = [[None if x == blank else draw(st.sampled_from([None, "a", "b", "c"]))
             for x in range(n_features)] for _ in range(n)]
    labels = [draw(st.sampled_from(["0", "1", "2"])) for _ in range(n)]
    weights = [draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0))) for _ in range(n)]
    d = dataset_from_rows("counts", names, rows, labels, weights=weights)
    cfg = ExperimentConfig(
        method=method, folds=2, iota=draw(st.sampled_from(IOTAS)),
        epsilon=draw(st.floats(0.0, 1.0, exclude_min=True)),
        fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        rate=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        columns=tuple(draw(st.lists(st.sampled_from(names), unique=True))) if names else (),
        learner=LearnerSpec(draw(st.sampled_from(["tree", "rules"]))),
    )
    return d, cfg, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(filter_runs())
def test_removal_counts_match_the_row_oracle_for_every_filter(case):
    d, cfg, seed = case
    stats = None
    if FILTERS[cfg.method].needs_stats:
        try:
            stats = compute_stats(d)
        except DataError:  # nothing to count: no row, no feature, or no weighted slot
            stats = MetricTable(d.fingerprint, 0.0, ((),) * len(d.features))
    out = FILTERS[cfg.method].run(d, cfg, seed, stats)
    after = getattr(out, "filtered", out)
    counts = removal_counts(d, after)
    assert counts == removal_oracle(d, after)
    if after is not out:
        assert counts.features_emptied == out.removed_features
