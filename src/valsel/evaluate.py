"""Cross-validated comparison of original and filtered training data.

The headline numbers are the model reduction rate and accuracy ratio

    MR = (|M_o| - |M_p|) / |M_o|        AR = Acc_p / Acc_o

where the o side trains on the discretized but unfiltered dataset and
the p side on the filtered one, each scored by stratified k-fold
cross-validation. Repeats re-run the filter with seeds seed, seed+1, ...
seed+repeats-1 and accuracies and model sizes are averaged over every
(repeat, fold) run before MR and AR are formed. Their harmonic mean is
reported when both are usable and as "undefined (no reduction)" when
MR <= 0.

By default the whole dataset is discretized and filtered once, before
the folds are drawn, mirroring the preprocessing-filter workflow this
reproduces; fold_safe=True instead refits discretization, metric tables
and the filter inside every training fold so no test information leaks
into preprocessing. Both arms of a report always share fold assignments
and seeds, so a "none" filter yields MR = 0 and AR = 1 exactly.

The misclassified filter, which keeps the rows the learner predicts
right out-of-fold, is a cross-validation too: it and each scored fold
share one train-and-score step, so every learner fit happens here.

Every random draw descends from the experiment seed; reports with the
same config serialize to identical bytes (wall-clock timings live
outside the canonical serialization and are opt-in).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import NamedTuple

from . import discretize
from .baselines import RESERVOIR_FRACTION, drop_columns, random_value_removal, reservoir_select
from .classifiers import LearnerSpec
from .data import Dataset
from .errors import (ConfigError, DataError, check_choice, check_count, check_flag, check_names,
                     check_number)
from .metrics import DATASET_ENTROPIES, aligned_table, compute_stats, left_sum
from .selection import FilterOutcome, VSConfig, pvs, pvs_plus

log = logging.getLogger(__name__)

UNDEFINED = "undefined (no reduction)"


def mr(size_original: float, size_filtered: float) -> float:
    """Model reduction rate (|M_o| - |M_p|) / |M_o|."""
    if size_original < 1:
        raise DataError(f"original model size must be >= 1, got {size_original}")
    return (size_original - size_filtered) / size_original


def ar(acc_original: float, acc_filtered: float) -> float:
    """Accuracy ratio Acc_p / Acc_o."""
    if acc_original <= 0:
        raise DataError("accuracy ratio undefined for zero original accuracy")
    return acc_filtered / acc_original


def harmonic(ar_value: float, mr_value: float) -> float | None:
    """Harmonic mean of AR and MR, None when MR <= 0 leaves it undefined."""
    if mr_value <= 0 or ar_value + mr_value <= 0:
        return None
    if ar_value == mr_value:
        return ar_value
    return 2.0 * ar_value * mr_value / (ar_value + mr_value)


def stratified_fold_assignment(label_ids, folds: int, seed: int) -> list[int]:
    """Fold index per instance: per-label round-robin after a seeded shuffle.

    One stream seeded from seed shuffles each label's index group, label
    ids ascending; groups are then dealt cyclically with a fold counter
    that carries across labels, so per-label fold counts differ by at
    most one and folds stay non-empty whenever folds <= |I|.
    """
    n = len(label_ids)
    check_count("folds", folds, 2)
    check_count("seed", seed)
    if folds > n:
        raise DataError(f"cannot make {folds} folds from {n} instances")
    groups: dict[int, list[int]] = {}
    for i, y in enumerate(label_ids):
        groups.setdefault(y, []).append(i)
    rng = random.Random(seed)
    fold_of = [0] * n
    counter = 0
    for y in sorted(groups):
        idxs = groups[y]
        if len(idxs) < folds:
            log.warning(
                "label id %d has %d instances, fewer than %d folds", y, len(idxs), folds
            )
        rng.shuffle(idxs)
        for i in idxs:
            fold_of[i] = counter % folds
            counter += 1
    return fold_of


def fold_splits(d: Dataset, folds: int, seed: int):
    """Yield (fold, train rows, test rows) of a stratified split as index lists."""
    fold_of = stratified_fold_assignment(d.instances.label_ids, folds, seed)
    rows = list(range(len(fold_of)))  # one int object per row, which every fold's lists share
    tests: list[list[int]] = [[] for _ in range(folds)]
    for i, g in zip(rows, fold_of):
        tests[g].append(i)
    for f, test in enumerate(tests):
        train = [i for i, g in zip(rows, fold_of) if g != f]  # ascending, in one pass
        yield f, train, test


@dataclass(frozen=True)
class RunRecord:
    seed: int
    fold: int
    accuracy: float
    model_size: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fold_hits(learner, train: Dataset, test: Dataset):
    """Train on train; return the model and, for each of test's rows, whether
    the model predicts that row's label."""
    model = learner.train(train)
    rows, labels = test.instances, test.labels
    predicted = model.predict_ids(rows, test)
    return model, [model.labels[y] == labels[l] for y, l in zip(predicted, rows.label_ids)]


def _fold_record(learner, train: Dataset, test: Dataset, seed: int, fold: int):
    """Train on train; score test's instances by weight, added left to right."""
    model, hits = _fold_hits(learner, train, test)
    weights = test.instances.weights
    total = left_sum(weights)
    if total <= 0:
        raise DataError("empty or zero-weight test fold")
    return RunRecord(seed, fold, left_sum(compress(weights, hits)) / total, model.size)


def misclassified_filter(d: Dataset, learner=None, folds: int = 10, seed: int = 0) -> Dataset:
    """Keep only instances the learner classifies correctly out-of-fold; the
    split rejects folds < 2 and folds > |I|."""
    learner = LearnerSpec() if learner is None else learner
    keep = []
    for _, train, test in fold_splits(d, folds, seed):
        keep += compress(test, _fold_hits(learner, d.take(train), d.take(test))[1])
    keep.sort()
    if not keep:
        log.warning("misclassified filter removed every instance")
    return d.take(keep)


def _fold_tasks(d: Dataset, folds: int, seed: int, tag_seed: int):
    """Yield (train, test, tag_seed, fold) per fold of a stratified split of d."""
    for f, train, test in fold_splits(d, folds, seed):
        yield d.take(train), d.take(test), tag_seed, f


def _means(records) -> tuple[float, float]:
    """Mean accuracy and mean model size of run records."""
    n = len(records)
    return left_sum(r.accuracy for r in records) / n, sum(r.model_size for r in records) / n


def cross_validate(d: Dataset, learner: LearnerSpec, folds: int = 10, seed: int = 0):
    """Mean accuracy and mean model size over stratified folds."""
    return _means([_fold_record(learner, *task) for task in _fold_tasks(d, folds, seed, seed)])


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one experiment, and of one filter command.

    Defaults: entropy metric, frequency discretization, epsilon 0.5,
    10 folds, 5 repeats, seed 0. A filter knob is checked here only when
    cfg.method reads it (Filter.check; the learner's for "misclassified"),
    but columns is a list of names for every method (drop_columns finds them
    in the data). jobs is kept so old configs load; filter repeats run serially.
    """

    disc_method: str = "frequency"  # one of discretize.METHODS
    bins: int = 10
    method: str = "pvs_plus"
    iota: str = "entropy"
    epsilon: float = 0.5
    seed: int = 0
    repeats: int = 5
    folds: int = 10
    fold_safe: bool = False
    jobs: int = 1
    learner: LearnerSpec = field(default_factory=LearnerSpec)
    fraction: float = RESERVOIR_FRACTION
    columns: tuple[str, ...] = ()
    rate: float = 0.0
    dataset_entropy: str = "value-sum"

    def __post_init__(self):
        object.__setattr__(self, "columns", check_names("columns", self.columns))
        discretize.check_knobs(self.disc_method, self.bins)
        check_choice("filter method", self.method, FILTERS)
        if not isinstance(self.learner, LearnerSpec):
            raise ConfigError(f"learner must be a LearnerSpec, got {self.learner!r}")
        FILTERS[self.method].check(self)
        check_count("seed", self.seed)
        check_count("repeats", self.repeats, 1)
        check_count("folds", self.folds, 2)
        check_flag("fold_safe", self.fold_safe)
        check_count("jobs", self.jobs, 1)

    def selection(self, seed: int) -> VSConfig:
        """The value-selection settings of one filter run."""
        return VSConfig(self.iota, self.epsilon, seed)

    def check_stats_knobs(self) -> None:
        """Raise ConfigError for a bad knob a metric table or value selection reads."""
        check_choice("dataset_entropy mode", self.dataset_entropy, DATASET_ENTROPIES)
        self.selection(self.seed)

    def as_dict(self) -> dict:
        """Every knob but jobs, which never changes a report; JSON-ready."""
        return dataclasses.asdict(self, dict_factory=_json_fields)


def _json_fields(pairs) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs if k != "jobs"}


class Filter(NamedTuple):
    """One filter arm.

    run(d, cfg, seed, stats) returns the filtered dataset, or for the
    value filters their FilterOutcome; stats is d's metric table when
    needs_stats is set and None otherwise; check(cfg) raises ConfigError
    for a bad knob run reads.
    """

    run: Callable
    needs_stats: bool = False
    check: Callable = lambda cfg: None


def _misclassified(d: Dataset, cfg: ExperimentConfig, seed: int, stats) -> Dataset:
    folds = _clamped_folds(cfg.folds, len(d.instances), "misclassified filter input")
    return misclassified_filter(d, cfg.learner, folds, seed)


# Every filter method by name. The entries look their filter function up
# when they run, so a wrapper put on a module attribute (as the benchmark
# does) sees every call.
FILTERS = {
    "none": Filter(lambda d, cfg, seed, stats: d),
    "pvs": Filter(lambda d, cfg, seed, stats: pvs(d, cfg.selection(seed), stats), True,
                  ExperimentConfig.check_stats_knobs),
    "pvs_plus": Filter(lambda d, cfg, seed, stats: pvs_plus(d, cfg.selection(seed), stats),
                       True, ExperimentConfig.check_stats_knobs),
    "reservoir": Filter(lambda d, cfg, seed, stats: reservoir_select(d, cfg.fraction, seed),
                        check=lambda cfg: check_number("fraction", cfg.fraction, 0, 1, "(]")),
    "misclassified": Filter(_misclassified, check=lambda cfg: cfg.learner.check()),
    "drop_columns": Filter(lambda d, cfg, seed, stats: drop_columns(d, cfg.columns)),
    "random_value": Filter(lambda d, cfg, seed, stats: random_value_removal(d, cfg.rate, seed),
                           check=lambda cfg: check_number("rate", cfg.rate, 0, 1, "[]")),
}


def filter_dataset(d: Dataset, cfg: ExperimentConfig, seed: int, stats) -> Dataset:
    """Run cfg.method on d with the given seed; returns the filtered dataset."""
    out = FILTERS[cfg.method].run(d, cfg, seed, stats)
    return out.filtered if isinstance(out, FilterOutcome) else out


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    n_instances: int
    n_features: int
    config: dict
    original_runs: tuple[RunRecord, ...]
    filtered_runs: tuple[RunRecord, ...]
    acc_original: float
    acc_filtered: float
    size_original: float
    size_filtered: float
    mr: float
    ar: float
    harmonic: float | None
    timings: dict[str, float]

    def to_json(self, include_timings: bool = False) -> str:
        payload = {
            "dataset": {
                "name": self.dataset,
                "instances": self.n_instances,
                "features": self.n_features,
            },
            "config": self.config,
            "original": {
                "accuracy": self.acc_original,
                "model_size": self.size_original,
                "runs": [r.as_dict() for r in self.original_runs],
            },
            "filtered": {
                "accuracy": self.acc_filtered,
                "model_size": self.size_filtered,
                "runs": [r.as_dict() for r in self.filtered_runs],
            },
            "metrics": {
                "mr": self.mr,
                "ar": self.ar,
                "harmonic": self.harmonic if self.harmonic is not None else UNDEFINED,
            },
        }
        if include_timings:
            payload["timings"] = self.timings
        return json.dumps(payload, indent=1) + "\n"

    def save(self, path, include_timings: bool = False) -> None:
        Path(path).write_text(self.to_json(include_timings), encoding="utf-8")


def epsilon_text(eps) -> str:
    """eps as report tables and sweep file names write it. Sweep points lie
    on a 1e-10 grid, so ten significant digits tell them apart; an eps of
    six or fewer significant digits reads as format(eps, "g") writes it."""
    return format(eps, ".10g")


def format_report_table(reports) -> str:
    """Aligned text table, one row per report."""
    rows = [("dataset", "method", "eps", "Acc_o", "Acc_p", "|M_o|", "|M_p|", "MR", "AR", "X")]
    for r in reports:
        rows.append((
            r.dataset, r.config["method"], epsilon_text(r.config["epsilon"]),
            f"{r.acc_original:.4f}", f"{r.acc_filtered:.4f}",
            f"{r.size_original:.1f}", f"{r.size_filtered:.1f}",
            f"{r.mr:.4f}", f"{r.ar:.4f}",
            f"{r.harmonic:.4f}" if r.harmonic is not None else UNDEFINED,
        ))
    return aligned_table(rows)


def _clamped_folds(requested: int, n: int, what: str) -> int:
    if n < 2:
        raise DataError(f"{what} left {n} instances, too few to cross-validate")
    if requested > n:
        log.warning("%s has %d instances; clamping folds from %d", what, n, requested)
        return n
    return requested


def _filter_repeats(d: Dataset, cfg: ExperimentConfig):
    """Yield (seed, filtered d) per repeat; nothing for the "none" method."""
    if cfg.method == "none":
        return
    stats = compute_stats(d, cfg.dataset_entropy) if FILTERS[cfg.method].needs_stats else None
    for rep in range(cfg.repeats):
        yield cfg.seed + rep, filter_dataset(d, cfg, cfg.seed + rep, stats)


def _experiment_tasks(d: Dataset, cfg: ExperimentConfig):
    """Yield (arm, train, test, tag_seed, fold) for every fit in report order,
    arm 0 original and 1 filtered: repeat-major, with folds clamped on a
    shrunken filtered dataset, or fold-major under fold_safe, which
    discretizes, measures and filters each training fold on its own.
    """
    if not cfg.fold_safe:
        d = discretize.apply(discretize.fit(d, cfg.disc_method, cfg.bins), d)
        folds = _clamped_folds(cfg.folds, len(d.instances), "dataset")
        # map() holds no task once it has passed it on, so a fold's datasets
        # can be freed before the next fold's are built
        yield from map(lambda task: (0, *task), _fold_tasks(d, folds, cfg.seed, cfg.seed))
        for fseed, d_f in _filter_repeats(d, cfg):
            folds = _clamped_folds(cfg.folds, len(d_f.instances), "filtered dataset")
            yield from map(lambda task: (1, *task), _fold_tasks(d_f, folds, cfg.seed, fseed))
        return
    folds = _clamped_folds(cfg.folds, len(d.instances), "dataset")
    # the features whole-dataset mode would cut; "none" reads no token
    numeric = () if cfg.disc_method == "none" else discretize.numeric_features(d)
    for f, train, test in fold_splits(d, folds, cfg.seed):
        train, test = d.take(train), d.take(test)
        spec = discretize.fit(train, cfg.disc_method, cfg.bins, numeric)
        train, test = discretize.apply(spec, train), discretize.apply(spec, test)
        yield 0, train, test, cfg.seed, f
        for fseed, d_f in _filter_repeats(train, cfg):
            if not d_f.instances:
                raise DataError(f"fold {f}: filter removed every training instance")
            yield 1, d_f, test, fseed, f


def run_experiment(d: Dataset, cfg: ExperimentConfig) -> EvalReport:
    """Discretize, filter, train and score both arms; see module docstring."""
    runs: tuple[list[RunRecord], list[RunRecord]] = ([], [])
    train_score = 0.0
    t0 = time.perf_counter()
    for arm, train, test, tag_seed, fold in _experiment_tasks(d, cfg):
        t1 = time.perf_counter()
        runs[arm].append(_fold_record(cfg.learner, train, test, tag_seed, fold))
        train_score += time.perf_counter() - t1
        del train, test  # free this fold's datasets before the next task is built
    timings = {"prepare": time.perf_counter() - t0 - train_score, "train_score": train_score}
    original_runs, filtered_runs = runs
    if cfg.method == "none":
        # reuse baseline records; a null filter must give MR = 0, AR = 1 exactly
        filtered_runs = original_runs

    acc_o, size_o = _means(original_runs)
    acc_p, size_p = _means(filtered_runs)
    mr_value = mr(size_o, size_p)
    ar_value = ar(acc_o, acc_p)
    return EvalReport(
        dataset=d.name,
        n_instances=len(d.instances),
        n_features=len(d.features),
        config=cfg.as_dict(),
        original_runs=tuple(original_runs),
        filtered_runs=tuple(filtered_runs),
        acc_original=acc_o,
        acc_filtered=acc_p,
        size_original=size_o,
        size_filtered=size_p,
        mr=mr_value,
        ar=ar_value,
        harmonic=harmonic(ar_value, mr_value),
        timings=timings,
    )
