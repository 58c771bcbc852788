"""Cut fitting and interval mapping for the three discretization schemes.

The MDL tests check fit_mdl against an independent oracle written as a
plain recursion with naive per-segment counting, so the two
implementations share nothing but the acceptance rule.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import (
    CATEGORICAL,
    DISCRETIZED,
    MISSING,
    ConfigError,
    DataError,
    DiscretizationSpec,
    dataset_from_rows,
)
from valsel.discretize import (
    apply,
    fit,
    fit_equal_frequency,
    fit_equal_width,
    fit_mdl,
    interval_labels,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def entropy_oracle(ys) -> float:
    n = len(ys)
    if n == 0:
        return 0.0
    return -sum((c / n) * math.log2(c / n) for c in Counter(ys).values())


def mdl_oracle(column, labels):
    """Top-down recursion: best boundary by weighted entropy, then the
    acceptance test gain > (log2(n-1) + log2(3^k - 2) - kE + k1E1 + k2E2)/n.
    """
    pairs = sorted((v, y) for v, y in zip(column, labels) if v is not None)

    def segment(pairs):
        n = len(pairs)
        vals = [v for v, _ in pairs]
        ys = [y for _, y in pairs]
        best = None
        for j in range(1, n):
            if vals[j - 1] == vals[j]:
                continue
            w = (j * entropy_oracle(ys[:j]) + (n - j) * entropy_oracle(ys[j:])) / n
            if best is None or w < best[0] - 1e-12:
                best = (w, j)
        if best is None:
            return []
        w, j = best
        e, e1, e2 = entropy_oracle(ys), entropy_oracle(ys[:j]), entropy_oracle(ys[j:])
        k, k1, k2 = len(set(ys)), len(set(ys[:j])), len(set(ys[j:]))
        threshold = (
            math.log2(n - 1) + math.log2(3**k - 2) - k * e + k1 * e1 + k2 * e2
        ) / n
        if e - w <= threshold:
            return []
        cut = (vals[j - 1] + vals[j]) / 2.0
        return segment(pairs[:j]) + [cut] + segment(pairs[j:])

    return segment(pairs)


# ---------------------------------------------------------------------------
# equal width
# ---------------------------------------------------------------------------


def test_equal_width_splits_range():
    cuts = fit_equal_width([0.0, 100.0], 10)
    assert cuts == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
    labels = interval_labels(cuts)
    assert labels[bisect.bisect_left(cuts, 85.0)] == "(80-90]"


def test_equal_width_small_cases():
    assert fit_equal_width([1, 2, 3, 4], 2) == [2.5]
    assert fit_equal_width([7, 7, 7], 5) == []
    assert fit_equal_width([None, 3.0, None, 9.0], 3) == [5.0, 7.0]


def test_equal_width_validates():
    with pytest.raises(DataError):
        fit_equal_width([None, None], 2, "height")
    with pytest.raises(ConfigError):
        fit_equal_width([1.0], 0)


# ---------------------------------------------------------------------------
# equal frequency
# ---------------------------------------------------------------------------


def test_equal_frequency_examples():
    assert fit_equal_frequency([1, 1, 1, 1, 9, 9, 9, 9], 2) == [5.0]
    assert fit_equal_frequency([5, 5, 5, 5], 4) == []
    assert fit_equal_frequency([1, 2, 3, 4, 5, 6], 3) == [2.5, 4.5]


def test_equal_frequency_never_splits_ties():
    cuts = fit_equal_frequency([1, 1, 1, 2, 2, 2, 2, 2, 3], 3)
    vals = sorted([1, 1, 1, 2, 2, 2, 2, 2, 3])
    for c in cuts:
        assert c not in vals
        left = sum(1 for v in vals if v <= c)
        assert vals[left - 1] != vals[left]


def test_equal_frequency_merges_forced_duplicates():
    cuts = fit_equal_frequency([1] * 9 + [2], 5)
    assert cuts == [1.5]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=40),
    st.integers(1, 8),
)
def test_equal_frequency_bins_balanced(vals, bins):
    cuts = fit_equal_frequency(list(vals), bins)
    assert cuts == sorted(cuts)
    assert len(set(cuts)) == len(cuts)
    svals = sorted(vals)
    for c in cuts:
        k = bisect.bisect_left(svals, c)
        assert 0 < k < len(svals)
        assert svals[k - 1] < c < svals[k]


# ---------------------------------------------------------------------------
# mdl
# ---------------------------------------------------------------------------


def test_mdl_trivial_cases():
    assert fit_mdl([1, 2, 3, 4], ["A", "A", "A", "A"]) == []
    assert fit_mdl([1, 2, 3, 4], ["A", "A", "B", "B"]) == [2.5]
    with pytest.raises(DataError):
        fit_mdl([None, None], ["A", "B"], "height")
    with pytest.raises(DataError):
        fit_mdl([1, 2], ["A"], "height")


def test_mdl_rejects_alternating_labels():
    # too little evidence for any boundary on ABAB: oracle and fit agree
    assert mdl_oracle([1, 2, 3, 4], ["A", "B", "A", "B"]) == []
    assert fit_mdl([1, 2, 3, 4], ["A", "B", "A", "B"]) == []


def test_mdl_accepts_clear_separation():
    col = list(range(40))
    ys = ["A"] * 20 + ["B"] * 20
    assert fit_mdl(col, ys) == [19.5]
    assert mdl_oracle(col, ys) == [19.5]


def test_mdl_matches_oracle_on_random_columns():
    rng = random.Random(4)
    for trial in range(300):
        n = rng.randrange(1, 35)
        col = [rng.randrange(0, 8) for _ in range(n)]
        ys = []
        for v in col:
            if rng.random() < 0.75:
                ys.append("A" if v < 4 else "B")
            else:
                ys.append(rng.choice("ABC"))
        if n > 2 and rng.random() < 0.2:
            col[rng.randrange(n)] = None
        got = fit_mdl(col, ys)
        want = mdl_oracle(col, ys)
        assert got == pytest.approx(want), f"trial {trial}: {col} {ys}"


def test_mdl_ignores_missing_rows():
    col = [1, None, 2, 3, None, 4]
    ys = ["A", "B", "A", "B", "A", "B"]
    kept_col = [1, 2, 3, 4]
    kept_ys = ["A", "A", "B", "B"]
    assert fit_mdl(col, ys) == fit_mdl(kept_col, kept_ys)


# ---------------------------------------------------------------------------
# interval labels
# ---------------------------------------------------------------------------


def test_interval_labels_shape():
    assert interval_labels([]) == ("(-inf-inf)",)
    assert interval_labels([2.5]) == ("(-inf-2.5]", "(2.5-inf)")
    assert interval_labels([10.0, 20.0]) == ("(-inf-10]", "(10-20]", "(20-inf)")


def test_interval_labels_disambiguate_close_cuts():
    cuts = [0.1234567890123, 0.1234567890124]
    labels = interval_labels(cuts)
    assert len(set(labels)) == 3
    assert repr(cuts[0]) in labels[0]


# ---------------------------------------------------------------------------
# fit/apply on datasets
# ---------------------------------------------------------------------------


def numeric_dataset():
    rows = [
        ["1.0", "x"],
        ["2.0", "y"],
        ["3.5", "x"],
        [None, "y"],
        ["9.0", "x"],
        ["10.0", "y"],
    ]
    return dataset_from_rows(
        "num", ["height", "color"], rows, ["0", "0", "0", "1", "1", "1"]
    )


def test_fit_targets_only_numeric_features():
    d = numeric_dataset()
    spec = fit(d, "frequency", bins=3)
    assert set(spec.cuts) == {"height"}
    assert spec.method == "frequency"


def test_apply_rewrites_numeric_feature():
    d = numeric_dataset()
    spec = fit(d, "binning", bins=3)
    out = apply(spec, d)
    assert out.features[0].kind == DISCRETIZED
    assert out.features[0].values == interval_labels(spec.cuts["height"])
    assert out.features[1] == d.features[1]
    assert out.instances[3].slots[0] == MISSING
    assert [i.label for i in out.instances] == [i.label for i in d.instances]


def test_apply_is_total_beyond_fitted_range():
    d = numeric_dataset()
    spec = fit(d, "frequency", bins=3)
    test = dataset_from_rows(
        "probe", ["height", "color"], [["-99", "x"], ["99", "y"]], ["0", "1"]
    )
    out = apply(spec, test)
    labels = interval_labels(spec.cuts["height"])
    assert out.features[0].values[out.instances[0].slots[0]] == labels[0]
    assert out.features[0].values[out.instances[1].slots[0]] == labels[-1]


def test_apply_boundary_goes_left():
    spec = DiscretizationSpec("binning", 2, {"height": (2.5,)})
    test = dataset_from_rows(
        "probe", ["height"], [["2.5"], ["2.500001"]], ["0", "1"]
    )
    out = apply(spec, test)
    assert out.features[0].values[out.instances[0].slots[0]] == "(-inf-2.5]"
    assert out.features[0].values[out.instances[1].slots[0]] == "(2.5-inf)"


def test_apply_requires_matching_schema():
    spec = DiscretizationSpec("binning", 2, {"height": (2.5,)})
    other = dataset_from_rows("o", ["width"], [["1"]], ["0"])
    with pytest.raises(DataError):
        apply(spec, other)
    nonnum = dataset_from_rows("o", ["height"], [["tall"]], ["0"])
    with pytest.raises(DataError):
        apply(spec, nonnum)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_tokens_are_data_errors(token):
    rows = [["1"], ["2"], [token], ["3"], ["4"], ["5"]]
    d = dataset_from_rows("nf", ["x"], rows, ["0", "1", "0", "1", "0", "1"])
    for method in ("binning", "frequency", "mdl"):
        with pytest.raises(DataError, match=rf"feature 'x': value '{token}' in instance 2"):
            fit(d, method, 3)
    spec = DiscretizationSpec("binning", 2, {"x": (2.5,)})
    with pytest.raises(DataError, match="not finite"):
        apply(spec, d)


def test_fit_is_deterministic_and_label_blind():
    d = numeric_dataset()
    for method in ("binning", "frequency"):
        s1, s2 = fit(d, method, 4), fit(d, method, 4)
        assert s1 == s2
        relabeled = dataset_from_rows(
            "r",
            ["height", "color"],
            [[d.value_token(0, v), "x"] for v in d.column(0)],
            ["1", "0", "1", "0", "1", "0"],
        )
        assert fit(relabeled, method, 4).cuts["height"] == s1.cuts["height"]
    with pytest.raises(ConfigError):
        fit(d, "chimerge")


def test_none_fits_no_feature_and_applies_as_identity():
    d = numeric_dataset()
    spec = fit(d, "none", 3)
    assert spec == DiscretizationSpec("none", 3, {})
    assert apply(spec, d) is d
    assert DiscretizationSpec.from_text(spec.to_text()) == spec
    with pytest.raises(ConfigError, match="bins must be >= 1"):
        fit(d, "none", 0)


def test_categorical_features_pass_through_untouched():
    d = dataset_from_rows("c", ["color"], [["red"], ["blue"]], ["0", "1"])
    spec = fit(d, "frequency")
    assert spec.cuts == {}
    assert apply(spec, d) == d
    assert apply(spec, d).features[0].kind == CATEGORICAL


def test_spec_text_round_trip(tmp_path):
    spec = DiscretizationSpec("mdl", 10, {"height": (1.5, 9.25), "width": ()})
    text = spec.to_text()
    assert DiscretizationSpec.from_text(text) == spec
    p = tmp_path / "cuts.json"
    spec.save(p)
    assert DiscretizationSpec.load(p) == spec
    assert p.read_text(encoding="utf-8") == text


def test_spec_validates_cut_order():
    with pytest.raises(ConfigError):
        DiscretizationSpec("binning", 2, {"height": (2.0, 1.0)})
    with pytest.raises(ConfigError):
        DiscretizationSpec("binning", 2, {"height": (1.0, 1.0)})
    with pytest.raises(ConfigError):
        DiscretizationSpec("guess", 2, {})


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    st.floats(-2e6, 2e6, allow_nan=False, allow_infinity=False),
)
def test_every_number_lands_in_exactly_one_interval(cut_pool, x):
    cuts = sorted(cut_pool)
    labels = interval_labels(cuts)
    k = bisect.bisect_left(cuts, x)
    assert 0 <= k < len(labels)
    if k > 0:
        assert x > cuts[k - 1]
    if k < len(cuts):
        assert x <= cuts[k]
