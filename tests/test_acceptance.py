"""End-to-end acceptance gates, one test per shipped guarantee.

Each test is a single pass/fail line under ``pytest -v``: value-entropy
arithmetic on a hand-checkable fixture, the expected-confusion inequality,
removal-probability calibration, instance-deletion calibration, metric
exactness, the epsilon-sweep shape, an optional credit-dataset check,
reservoir uniformity, byte-identical reports, and
high-entropy feature subsumption.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
import scipy.stats

from valsel import (
    ExperimentConfig,
    LearnerSpec,
    MetricTable,
    ValueStats,
    VSConfig,
    ar,
    compute_stats,
    confusion_report,
    dataset_from_rows,
    harmonic,
    load_dataset,
    mr,
    pvs,
    pvs_plus,
    reservoir_select,
    run_experiment,
    save_dataset,
    selection_weights,
    train_tree,
)
from valsel.cli import main

from conftest import build_samples, random_dataset, separable_dataset

DATA_DIR = Path(__file__).parent / "data"


def test_c01_value_entropies_on_hand_checked_fixture():
    start = time.perf_counter()
    d = build_samples()
    stats = compute_stats(d)
    by_token = {s.token: s.entropy for s in stats.per_feature[2]}
    assert by_token["2"] == pytest.approx(0.0, abs=1e-4)
    assert by_token["1"] == pytest.approx(0.9183, abs=1e-4)
    assert by_token["-1"] == pytest.approx(0.0, abs=1e-4)
    assert time.perf_counter() - start < 1.0


def test_c02_expected_confusion_drop_equals_weighted_squared_entropy():
    start = time.perf_counter()
    shapes = random.Random(97)
    for i in range(100):
        d = random_dataset(
            seed=1000 + i,
            n=shapes.randint(5, 200),
            n_features=shapes.randint(1, 10),
            n_labels=shapes.randint(2, 5),
            n_values=shapes.randint(2, 6),
            missing_rate=shapes.uniform(0.0, 0.3),
        )
        table = compute_stats(d)
        before, after = confusion_report(table, selection_weights(table))
        assert after <= before + 1e-12
        squared = sum(s.weight * s.entropy**2 for s in table.entries())
        assert before - after == pytest.approx(squared, abs=1e-9)
    assert time.perf_counter() - start < 10.0


def _pinned_stats(d, entropies):
    """A metric table whose three single-value features carry fixed H."""
    groups = []
    for x, h in enumerate(entropies):
        groups.append(
            (
                ValueStats(
                    feature=x,
                    value=0,
                    token=d.features[x].values[0],
                    support=float(len(d.instances)),
                    class_probs=(0.5, 0.5),
                    weight=1.0 / len(entropies),
                    entropy=h,
                    info_gain=1.0 - h,
                    norm_info_gain=1.0 - h,
                ),
            )
        )
    return MetricTable(
        fingerprint=d.fingerprint, dataset_confusion=1.0, per_feature=tuple(groups)
    )


def test_c03_removal_frequency_tracks_analytic_probability():
    start = time.perf_counter()
    entropies = (0.2, 0.5, 0.9)
    epsilon = 0.5
    targets = [min(1.0, h / epsilon) for h in entropies]
    d = dataset_from_rows(
        "cal", ["h02", "h05", "h09"], [["a", "a", "a"], ["a", "a", "a"]], ["0", "1"]
    )
    stats = _pinned_stats(d, entropies)

    hits = [0, 0, 0]
    for seed in range(20_000):
        out = pvs(d, VSConfig(epsilon=epsilon, seed=seed), stats)
        for x in range(3):
            hits[x] += out.removed_value_mask[x][0]
    for x, target in enumerate(targets):
        assert hits[x] / 20_000 == pytest.approx(target, abs=0.015)

    slot_hits = [0, 0, 0]
    for seed in range(10_000):
        out = pvs_plus(d, VSConfig(epsilon=epsilon, seed=seed), stats)
        for row in out.removed_value_mask:
            for x in range(3):
                slot_hits[x] += row[x]
    for x, target in enumerate(targets):
        assert slot_hits[x] / 20_000 == pytest.approx(target, abs=0.015)
    assert time.perf_counter() - start < 30.0


def test_c04_deletion_rate_matches_missing_slot_share():
    rows = [["a", None, None, None], ["a", "b", "b", "b"]]
    d = dataset_from_rows("poor", ["f1", "f2", "f3", "f4"], rows, ["x", "x"])
    stats = compute_stats(d)
    assert all(s.entropy == 0.0 for s in stats.entries())

    deleted = 0
    for seed in range(20_000):
        out = pvs_plus(d, VSConfig(epsilon=0.5, seed=seed), stats)
        deleted += 0 in out.removed_instances
        assert 1 not in out.removed_instances
    assert deleted / 20_000 == pytest.approx(0.75, abs=0.015)


def test_c05_reduction_and_accuracy_ratio_examples():
    assert mr(1981, 991) == pytest.approx(0.49975, abs=1e-4)
    assert ar(0.883, 0.798) == pytest.approx(0.9037, abs=1e-4)
    for x in (0.3, 0.1 + 0.2, 0.7, 0.9037, 1e-9, 1.0):
        assert harmonic(x, x) == x


def _mixed_entropy_dataset(
    n=1000, buckets=334, purities=(0.947, 0.906, 0.854, 0.787, 0.684), seed=0
):
    """One many-valued pure feature plus binary features of rising entropy."""
    rng = random.Random(seed)
    rows, labels = [], []
    for i in range(n):
        b = i % buckets
        label = b % 2
        row = [f"b{b:03d}"]
        for p in purities:
            bit = label if rng.random() < p else 1 - label
            row.append(f"v{bit}")
        rows.append(row)
        labels.append(str(label))
    names = ["bucket"] + [f"m{j}" for j in range(len(purities))]
    return dataset_from_rows("sweep", names, rows, labels)


def test_c06_epsilon_sweep_is_monotone_in_both_metrics():
    start = time.perf_counter()
    d = _mixed_entropy_dataset()
    mrs, ars = [], []
    for k in range(1, 11):
        cfg = ExperimentConfig(
            disc_method="none",
            method="pvs_plus",
            iota="entropy",
            epsilon=k / 10,
            seed=0,
            repeats=20,
            folds=3,
            learner=LearnerSpec("tree", min_leaf=1, cf=1.0),
        )
        rep = run_experiment(d, cfg)
        mrs.append(rep.mr)
        ars.append(rep.ar)
    mr_violations = sum(mrs[i + 1] > mrs[i] + 1e-12 for i in range(9))
    ar_violations = sum(ars[i + 1] < ars[i] - 1e-12 for i in range(9))
    assert mr_violations <= 1
    assert ar_violations <= 1
    assert time.perf_counter() - start < 120.0


CREDIT_NUMERIC_COLUMNS = frozenset({1, 4, 7, 10, 12, 15, 17})


def _load_credit_dataset(tmp_path):
    """The UCI credit table, from whichever supported file is present."""
    for name in ("german.csv", "german.arff"):
        path = DATA_DIR / name
        if path.exists():
            return load_dataset(path)
    raw = DATA_DIR / "german.data"
    if not raw.exists():
        return None
    lines = []
    header = [f"f{x + 1}" for x in range(20)] + ["class"]
    lines.append(",".join(header))
    for line in raw.read_text().splitlines():
        tokens = line.split()
        if len(tokens) == 21:
            lines.append(",".join(tokens))
    csv_path = tmp_path / "german.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    return load_dataset(csv_path)


def test_c07_credit_dataset_reduction_with_default_settings(tmp_path):
    d = _load_credit_dataset(tmp_path)
    if d is None:
        pytest.skip(
            "credit dataset not fetched; download 'german.data' from the UCI "
            "statlog (German credit) page and place it at tests/data/german.data "
            "(a CSV or ARFF export named german.csv / german.arff also works)"
        )
    start = time.perf_counter()
    rep = run_experiment(d, ExperimentConfig(method="pvs_plus"))
    assert rep.mr >= 0.85
    assert rep.ar >= 0.90
    assert time.perf_counter() - start < 120.0


def test_c08_reservoir_draws_are_uniform():
    pool = dataset_from_rows(
        "pool",
        ["id"],
        [[f"i{j}"] for j in range(20)],
        [str(j % 2) for j in range(20)],
    )
    counts = [0] * 20
    for seed in range(50_000):
        picked = reservoir_select(pool, fraction=0.25, seed=seed)
        assert len(picked.instances) == 5
        for inst in picked.instances:
            counts[inst.slots[0]] += 1
    result = scipy.stats.chisquare(counts)
    assert result.pvalue >= 0.01


def test_c09_identical_experiment_invocations_write_identical_reports(
    tmp_path, capsys
):
    source = tmp_path / "in.arff"
    save_dataset(separable_dataset(11, n=48, noise=0.1), source)
    reports = []
    for stem in ("one", "two"):
        report = tmp_path / f"{stem}.json"
        code = main(
            [
                "experiment",
                "--input", str(source),
                "--method", "pvs_plus",
                "--epsilon", "0.7",
                "--seed", "4",
                "--repeats", "3",
                "--folds", "5",
                "--disc-method", "none",
                "--report", str(report),
            ]
        )
        assert code == 0
        reports.append(report.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_c10_fully_confused_feature_is_removed_and_never_split():
    rows, labels = [], []
    for j in range(4):
        for lab in ("0", "1"):
            rows.append([f"u{j}", f"a{lab}"])
            labels.append(lab)
    d = dataset_from_rows("mix", ["noise", "anchor"], rows, labels)
    stats = compute_stats(d)
    assert all(s.entropy == 1.0 for s in stats.per_feature[0])

    for epsilon in (0.5, 0.25):
        for seed in (0, 7):
            out = pvs(d, VSConfig(epsilon=epsilon, seed=seed), stats)
            assert 0 in out.removed_features
            assert out.filtered.features[0].values == ()
            model = train_tree(out.filtered, min_leaf=1, cf=1.0)
            assert "noise" not in model.split_features()
            assert model.split_features() == {"anchor"}
