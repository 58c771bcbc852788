"""Reduction metrics, stratified cross-validation, experiment reports."""

from __future__ import annotations

import json
import os
import re
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from valsel import (
    ConfigError,
    DataError,
    Dataset,
    ExperimentConfig,
    LearnerSpec,
    RunRecord,
    ar,
    cross_validate,
    dataset_from_rows,
    format_report_table,
    harmonic,
    mr,
    random_value_removal,
    reservoir_select,
    run_experiment,
    stratified_fold_assignment,
)
from valsel import evaluate
from valsel.evaluate import UNDEFINED, _means, fold_splits
from valsel.metrics import left_sum

from conftest import random_dataset


# ---------------------------------------------------------------------------
# headline metrics
# ---------------------------------------------------------------------------


def test_model_reduction_rate():
    assert mr(1981, 991) == pytest.approx(0.49975, abs=1e-4)
    assert mr(1981, 991) == (1981 - 991) / 1981
    assert mr(10, 10) == 0.0
    assert mr(10, 12) < 0  # growth shows up as negative reduction
    with pytest.raises(DataError):
        mr(0.5, 1)
    with pytest.raises(DataError):
        mr(0, 0)


def test_accuracy_ratio():
    assert ar(0.883, 0.798) == pytest.approx(0.9037, abs=1e-4)
    assert ar(0.5, 0.5) == 1.0
    assert ar(0.5, 0.6) > 1.0
    with pytest.raises(DataError):
        ar(0.0, 0.5)
    with pytest.raises(DataError):
        ar(-1.0, 0.5)


def test_harmonic_mean():
    a, m = 0.9037, 0.49975
    assert harmonic(a, m) == pytest.approx(2 * a * m / (a + m), abs=1e-12)
    # equal inputs come back bit-identical, not through the 2ab/(a+b) form
    for x in (0.3, 0.1 + 0.2, 0.7, 1e-9, 1.0):
        assert harmonic(x, x) == x
    assert harmonic(1.0, 0.0) is None
    assert harmonic(1.0, -0.5) is None
    assert harmonic(0.0, 0.0) is None


# ---------------------------------------------------------------------------
# fold assignment and cross-validation
# ---------------------------------------------------------------------------


def test_fold_assignment_is_stratified_and_balanced():
    labels = [0] * 40 + [1] * 20
    fold_of = stratified_fold_assignment(labels, folds=10, seed=3)
    assert len(fold_of) == 60 and set(fold_of) == set(range(10))
    assert Counter(fold_of) == {f: 6 for f in range(10)}
    per_label_0 = Counter(f for f, y in zip(fold_of, labels) if y == 0)
    per_label_1 = Counter(f for f, y in zip(fold_of, labels) if y == 1)
    assert per_label_0 == {f: 4 for f in range(10)}
    assert per_label_1 == {f: 2 for f in range(10)}


def test_fold_sizes_differ_by_at_most_one():
    labels = [0] * 7 + [1] * 6
    fold_of = stratified_fold_assignment(labels, folds=4, seed=1)
    sizes = Counter(fold_of)
    assert max(sizes.values()) - min(sizes.values()) <= 1
    for y in (0, 1):
        per = Counter(f for f, lab in zip(fold_of, labels) if lab == y)
        counts = [per.get(f, 0) for f in range(4)]
        assert max(counts) - min(counts) <= 1


@given(st.lists(st.integers(0, 3), min_size=2, max_size=60), st.data())
def test_every_fold_gets_rows_and_leaves_rows_to_train_on(labels, data):
    """Rows are dealt to folds cyclically, label by label, so for any labels
    and 2 <= folds <= n no fold is empty and none holds every row: fold_splits
    needs no check of its own for a degenerate fold."""
    folds = data.draw(st.integers(2, len(labels)), label="folds")
    fold_of = stratified_fold_assignment(labels, folds, data.draw(st.integers(-3, 3)))
    sizes = [fold_of.count(f) for f in range(folds)]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    for y in set(labels):
        per_fold = Counter(f for f, label in zip(fold_of, labels) if label == y)
        counts = [per_fold[f] for f in range(folds)]
        assert max(counts) - min(counts) <= 1


def test_fold_assignment_seeding():
    labels = [i % 3 for i in range(60)]
    a = stratified_fold_assignment(labels, 5, seed=0)
    assert a == stratified_fold_assignment(labels, 5, seed=0)
    assert a != stratified_fold_assignment(labels, 5, seed=1)


def fold_splits_oracle(d, folds, seed):
    """fold_splits with two comprehensions over fold_of per fold, verbatim."""
    fold_of = stratified_fold_assignment([i.label for i in d.instances], folds, seed)
    for f in range(folds):
        train = [i for i, g in enumerate(fold_of) if g != f]
        test = [i for i, g in enumerate(fold_of) if g == f]
        if not train or not test:
            raise DataError(f"fold {f} degenerate: {len(train)} train, {len(test)} test")
        yield f, train, test


@pytest.mark.parametrize("n, n_labels, folds", [(2, 1, 2), (7, 2, 7), (60, 3, 10), (503, 4, 5)])
def test_fold_splits_match_the_per_fold_comprehensions(n, n_labels, folds):
    d = random_dataset(n, n=n, n_labels=n_labels)
    for seed in range(3):
        assert list(fold_splits(d, folds, seed)) == list(fold_splits_oracle(d, folds, seed))


def test_fold_assignment_validation(caplog):
    with pytest.raises(ConfigError):
        stratified_fold_assignment([0, 1, 0, 1], folds=1, seed=0)
    with pytest.raises(DataError):
        stratified_fold_assignment([0, 1, 0, 1], folds=5, seed=0)
    with caplog.at_level("WARNING"):
        stratified_fold_assignment([0] * 9 + [1], folds=3, seed=0)
    assert any("fewer than" in r.message for r in caplog.records)


def test_cross_validate_on_clean_data(make_separable):
    d = make_separable(seed=2, n=48, noise=0.0)
    learner = LearnerSpec("tree", min_leaf=1, cf=1.0)
    acc, size = cross_validate(d, learner, folds=6, seed=0)
    assert acc == 1.0  # every fold still sees all three predictive values
    assert size >= 3
    assert (acc, size) == cross_validate(d, learner, folds=6, seed=0)


def test_run_record_as_dict():
    rec = RunRecord(seed=2, fold=3, accuracy=0.5, model_size=7)
    assert rec.as_dict() == {"seed": 2, "fold": 3, "accuracy": 0.5, "model_size": 7}


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


def test_experiment_config_validation():
    assert ExperimentConfig().method == "pvs_plus"
    with pytest.raises(ConfigError):
        ExperimentConfig(disc_method="kmeans")
    with pytest.raises(ConfigError):
        ExperimentConfig(method="psychic")
    with pytest.raises(ConfigError):
        ExperimentConfig(method="pvs", iota="gini")
    with pytest.raises(ConfigError):
        ExperimentConfig(method="pvs", epsilon=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(repeats=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(folds=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(jobs=0)
    # epsilon only matters to the value filters
    assert ExperimentConfig(method="none", epsilon=-5.0).epsilon == -5.0
    with pytest.raises(ConfigError, match=r"^unknown filter method \['pvs'\]$"):
        ExperimentConfig(method=["pvs"])  # not a raw TypeError from the FILTERS lookup


@pytest.mark.parametrize("knob", ["bins", "seed", "repeats", "folds", "jobs"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_integer_knobs_must_be_ints(knob, value):
    with pytest.raises(ConfigError, match=f"^{knob} must be an integer, got {value!r}$"):
        ExperimentConfig(**{knob: value})
    if knob == "folds":  # the fold split checks its own count, for the library's callers
        with pytest.raises(ConfigError, match=f"^folds must be an integer, got {value!r}$"):
            stratified_fold_assignment([0, 1, 0, 1, 0, 1], value, 0)
    if knob == "seed":  # and the library's seeded draws their seed
        d = dataset_from_rows("t", ["a"], [["x"], ["y"]], ["p", "q"])
        for draw in (lambda: stratified_fold_assignment([0, 1, 0, 1], 2, value),
                     lambda: reservoir_select(d, 0.5, value),
                     lambda: random_value_removal(d, 0.5, value)):
            with pytest.raises(ConfigError, match=f"^seed must be an integer, got {value!r}$"):
                draw()


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_number_knobs_must_be_numbers(value):
    def raises(knob):
        return pytest.raises(ConfigError,
                             match=f"^{knob} must be a number, got {re.escape(repr(value))}$")

    for knob, method in (("epsilon", "pvs"), ("epsilon", "pvs_plus"), ("fraction", "reservoir"),
                         ("rate", "random_value")):
        with raises(knob):
            ExperimentConfig(method=method, **{knob: value})
    for kind, knob in (("tree", "cf"), ("rules", "prune_fraction")):
        with raises(knob):
            ExperimentConfig(method="misclassified", learner=LearnerSpec(kind, **{knob: value}))


def test_flag_names_seed_and_learner_fields_are_checked():
    for value in ("no", 1, None):
        with pytest.raises(ConfigError, match=f"^fold_safe must be True or False, got {value!r}$"):
            ExperimentConfig(fold_safe=value)
    for value in ("ab", 5):
        with pytest.raises(ConfigError, match=f"^columns must be a list of names, got {value!r}$"):
            ExperimentConfig(columns=value, method="drop_columns")
    with pytest.raises(ConfigError, match=r"^learner must be a LearnerSpec, got 'rules'$"):
        ExperimentConfig(learner="rules")
    assert ExperimentConfig(seed=-3).seed == -3  # random.Random takes any int
    assert ExperimentConfig(columns=iter(["a"]), method="drop_columns").columns == ("a",)


def test_config_as_dict_is_json_ready():
    cfg = ExperimentConfig(method="pvs", epsilon=0.3, columns=["a", "b"])
    d = cfg.as_dict()
    assert d["method"] == "pvs" and d["epsilon"] == 0.3
    assert d["columns"] == ["a", "b"]
    assert d["learner"]["kind"] == "tree"
    json.dumps(d)


# ---------------------------------------------------------------------------
# whole experiments
# ---------------------------------------------------------------------------


def test_null_filter_scores_exact_unity(make_dataset):
    d = make_dataset(3, n=40)
    for fold_safe in (False, True):
        cfg = ExperimentConfig(
            disc_method="none", method="none", repeats=3, folds=5, fold_safe=fold_safe
        )
        rep = run_experiment(d, cfg)
        assert rep.mr == 0.0
        assert rep.ar == 1.0
        assert rep.harmonic is None
        assert rep.filtered_runs == rep.original_runs
        assert UNDEFINED in rep.to_json()


def test_reports_serialize_deterministically(make_separable):
    d = make_separable(seed=5, n=48, noise=0.1)
    cfg = ExperimentConfig(
        disc_method="none", method="pvs_plus", epsilon=1.0, repeats=2, folds=4
    )
    one = run_experiment(d, cfg)
    two = run_experiment(d, cfg)
    assert one.to_json() == two.to_json()
    assert "timings" not in json.loads(one.to_json())
    assert "timings" in json.loads(one.to_json(include_timings=True))


def test_parallel_jobs_match_serial(make_separable):
    d = make_separable(seed=9, n=60, noise=0.1)
    base = dict(disc_method="none", method="pvs_plus", epsilon=1.0, repeats=3, folds=4)
    serial = run_experiment(d, ExperimentConfig(**base, jobs=1))
    parallel = run_experiment(d, ExperimentConfig(**base, jobs=3))
    assert serial.to_json() == parallel.to_json()


def test_repeats_run_in_the_calling_thread(make_separable, monkeypatch):
    d = make_separable(seed=9, n=40, noise=0.1)
    base = dict(disc_method="none", method="pvs_plus", epsilon=1.0, repeats=4, folds=4)
    serial = run_experiment(d, ExperimentConfig(**base, jobs=1))

    def no_threads(self):
        raise AssertionError("run_experiment started a thread")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert run_experiment(d, ExperimentConfig(**base, jobs=8)).to_json() == serial.to_json()


def test_report_aggregates_match_runs(make_dataset):
    d = make_dataset(1, n=60)
    cfg = ExperimentConfig(
        disc_method="none", method="pvs", epsilon=0.8, repeats=3, folds=5
    )
    rep = run_experiment(d, cfg)
    assert len(rep.original_runs) == 5
    assert len(rep.filtered_runs) == 15
    assert rep.acc_original == sum(r.accuracy for r in rep.original_runs) / 5
    assert rep.size_filtered == sum(r.model_size for r in rep.filtered_runs) / 15
    assert rep.mr == mr(rep.size_original, rep.size_filtered)
    assert rep.ar == ar(rep.acc_original, rep.acc_filtered)
    assert rep.harmonic == harmonic(rep.ar, rep.mr)
    assert rep.config == cfg.as_dict()
    assert rep.n_instances == 60
    assert rep.n_features == len(d.features)
    # filter repeats carry their own seeds, cross-validation reuses the base seed
    assert {r.seed for r in rep.original_runs} == {cfg.seed}
    assert {r.seed for r in rep.filtered_runs} == {cfg.seed, cfg.seed + 1, cfg.seed + 2}


def test_fold_safe_refits_per_fold(make_separable):
    d = make_separable(seed=13, n=48, noise=0.0)
    cfg = ExperimentConfig(
        disc_method="none", method="pvs_plus", epsilon=1.0,
        repeats=2, folds=4, fold_safe=True,
    )
    rep = run_experiment(d, cfg)
    assert rep.to_json() == run_experiment(d, cfg).to_json()
    assert len(rep.original_runs) == 4
    assert len(rep.filtered_runs) == 8
    assert {r.fold for r in rep.filtered_runs} == {0, 1, 2, 3}
    assert 0.0 <= rep.acc_filtered <= 1.0


@pytest.mark.parametrize("fold_safe", [False, True])
def test_filtered_records_are_repeat_major_or_fold_major(make_separable, fold_safe):
    d = make_separable(seed=13, n=48, noise=0.1)
    cfg = ExperimentConfig(
        disc_method="none", method="pvs_plus", epsilon=1.0, seed=5,
        repeats=3, folds=4, fold_safe=fold_safe,
    )
    rep = run_experiment(d, cfg)
    assert [r.fold for r in rep.original_runs] == [0, 1, 2, 3]
    order = [(s, f) for s in (5, 6, 7) for f in range(4)]
    if fold_safe:
        order.sort(key=lambda sf: sf[1])
    assert [(r.seed, r.fold) for r in rep.filtered_runs] == order


def test_both_modes_report_the_same_timing_keys(make_separable):
    d = make_separable(seed=3, n=40, noise=0.1)
    keys = set()
    for fold_safe in (False, True):
        cfg = ExperimentConfig(
            disc_method="none", method="pvs", epsilon=1.0, repeats=2, folds=4,
            fold_safe=fold_safe,
        )
        rep = run_experiment(d, cfg)
        keys.add(tuple(rep.timings))
        assert all(t >= 0.0 for t in rep.timings.values())
        assert "timings" not in json.loads(rep.to_json())
        assert json.loads(rep.to_json(include_timings=True))["timings"] == rep.timings
    assert keys == {("prepare", "train_score")}


@pytest.mark.parametrize("kind", ["tree", "rules"])
@pytest.mark.parametrize("folds,seed", [(3, 0), (5, 7)])
def test_cross_validate_scores_like_the_baseline_arm(kind, folds, seed):
    d = random_dataset(seed, n=50, n_features=4, n_labels=3)
    learner = LearnerSpec(kind)
    cfg = ExperimentConfig(
        disc_method="none", method="none", folds=folds, seed=seed, learner=learner
    )
    rep = run_experiment(d, cfg)
    assert cross_validate(d, learner, folds, seed) == (rep.acc_original, rep.size_original)


def test_each_fold_is_freed_before_the_next_is_built(make_separable, monkeypatch):
    # a fold's train and test datasets must be gone by the time the next
    # fold's are gathered, or peak memory holds two folds at once
    held, alive = [], []
    take, fold_record = Dataset.take, evaluate._fold_record

    def counted_take(self, positions):
        alive.append(sum(ref() is not None for ref in held))
        return take(self, positions)

    def watched(learner, train, test, seed, fold):
        held[:] = [weakref.ref(train), weakref.ref(test)]
        return fold_record(learner, train, test, seed, fold)

    monkeypatch.setattr(Dataset, "take", counted_take)
    monkeypatch.setattr(evaluate, "_fold_record", watched)
    d = make_separable(seed=3, n=40, noise=0.1)
    cfg = ExperimentConfig(disc_method="none", method="pvs_plus", epsilon=1.0, repeats=2, folds=4)
    run_experiment(d, cfg)
    assert len(alive) == 2 * 4 * 3 and not any(alive)


def test_folds_clamp_when_filtering_shrinks(make_dataset, caplog):
    d = make_dataset(2, n=40)
    cfg = ExperimentConfig(
        disc_method="none", method="reservoir", fraction=0.1, repeats=1, folds=10
    )
    with caplog.at_level("WARNING"):
        rep = run_experiment(d, cfg)
    assert any("clamping folds" in r.message for r in caplog.records)
    assert len(rep.original_runs) == 10
    assert len(rep.filtered_runs) == 4  # ceil(0.1 * 40) survivors, one fold each


def test_degenerate_data_errors(make_dataset):
    tiny = dataset_from_rows("tiny", ["f"], [["x"]], ["a"])
    with pytest.raises(DataError):
        run_experiment(tiny, ExperimentConfig(disc_method="none", method="none"))
    cfg = ExperimentConfig(
        disc_method="none", method="random_value", rate=1.0, repeats=1, folds=4, fold_safe=True
    )
    with pytest.raises(DataError, match="fold 0: filter removed every training instance"):
        run_experiment(make_dataset(1, n=40), cfg)


def test_report_table_layout(make_dataset):
    d = make_dataset(4, n=40)
    rep = run_experiment(
        d, ExperimentConfig(disc_method="none", method="none", repeats=1, folds=4)
    )
    table = format_report_table([rep])
    header, row = table.splitlines()[:2]
    assert header.split()[:3] == ["dataset", "method", "eps"]
    assert "none" in row and UNDEFINED in row
    assert "1.0000" in row  # AR column
    assert table.endswith("\n")


def test_json_report_shape(make_dataset):
    d = make_dataset(6, n=40)
    cfg = ExperimentConfig(
        disc_method="none", method="reservoir", fraction=0.5, repeats=2, folds=4
    )
    payload = json.loads(run_experiment(d, cfg).to_json())
    assert set(payload) == {"dataset", "config", "original", "filtered", "metrics"}
    assert payload["dataset"]["instances"] == 40
    assert len(payload["original"]["runs"]) == 4
    assert len(payload["filtered"]["runs"]) == 8
    assert set(payload["metrics"]) == {"mr", "ar", "harmonic"}
    for run in payload["filtered"]["runs"]:
        assert set(run) == {"seed", "fold", "accuracy", "model_size"}


def test_means_add_floats_left_to_right_on_every_python():
    # Python 3.12's sum() compensates: it gives 1.0 for ten 0.1s and 1.0 for
    # [1e16, 1.0, -1e16]; a left-to-right addition gives what 3.10/3.11 give.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([])) == 0.0
    records = [RunRecord(seed=0, fold=k, accuracy=0.1, model_size=3) for k in range(10)]
    assert _means(records) == (0.09999999999999999, 3.0)

