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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from . import discretize
from .baselines import (
    RESERVOIR_FRACTION,
    drop_columns,
    misclassified_filter,
    random_value_removal,
    reservoir_select,
)
from .classifiers import LearnerSpec
from .data import Dataset
from .errors import ConfigError, DataError
from .metrics import aligned_table, compute_stats
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
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
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
    fold_of = stratified_fold_assignment([i.label for i in d.instances], folds, seed)
    for f in range(folds):
        train = [i for i, g in enumerate(fold_of) if g != f]
        test = [i for i, g in enumerate(fold_of) if g == f]
        if not train or not test:
            raise DataError(f"fold {f} degenerate: {len(train)} train, {len(test)} test")
        yield f, train, test


@dataclass(frozen=True)
class RunRecord:
    seed: int
    fold: int
    accuracy: float
    model_size: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fold_record(learner, train: Dataset, test, schema: Dataset, seed: int, fold: int):
    """Train on train and score on the test instances, whose slots index schema."""
    model = learner.train(train)
    good = total = 0.0
    for inst in test:
        label, _ = model.predict(inst, schema)
        total += inst.weight
        if label == schema.labels[inst.label]:
            good += inst.weight
    if total <= 0:
        raise DataError("empty or zero-weight test fold")
    return RunRecord(seed, fold, good / total, model.size)


def _cv_records(d: Dataset, learner: LearnerSpec, folds: int, seed: int, tag_seed: int):
    rows = d.instances
    records = []
    for f, train, test in fold_splits(d, folds, seed):
        train_d = d.with_instances([rows[i] for i in train])
        records.append(_fold_record(learner, train_d, [rows[i] for i in test], d, tag_seed, f))
    return records


def _means(records) -> tuple[float, float]:
    """Mean accuracy and mean model size of run records."""
    n = len(records)
    return sum(r.accuracy for r in records) / n, sum(r.model_size for r in records) / n


def cross_validate(d: Dataset, learner: LearnerSpec, folds: int = 10, seed: int = 0):
    """Mean accuracy and mean model size over stratified folds."""
    return _means(_cv_records(d, learner, folds, seed, seed))


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one experiment, and of one filter command.

    Defaults: entropy metric, frequency discretization, epsilon 0.5,
    10 folds, 5 repeats, seed 0. A filter knob is checked only when
    cfg.method reads it: the value-selection knobs here, the others by
    the filter function when it runs.
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
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.disc_method not in discretize.METHODS:
            raise ConfigError(f"unknown discretization method {self.disc_method!r}")
        if self.method not in FILTERS:
            raise ConfigError(f"unknown filter method {self.method!r}")
        if FILTERS[self.method].needs_stats:
            self.selection(self.seed)
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    def selection(self, seed: int) -> VSConfig:
        """The value-selection settings of one filter run."""
        return VSConfig(self.iota, self.epsilon, seed)

    def as_dict(self) -> dict:
        """Every knob but jobs, which never changes a report; JSON-ready."""
        return dataclasses.asdict(self, dict_factory=_json_fields)


def _json_fields(pairs) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in pairs if k != "jobs"}


class Filter(NamedTuple):
    """One filter arm.

    run(d, cfg, seed, stats) returns the filtered dataset, or for the
    value filters their FilterOutcome; stats is d's metric table when
    needs_stats is set and None otherwise.
    """

    run: Callable
    needs_stats: bool = False


def _misclassified(d: Dataset, cfg: ExperimentConfig, seed: int, stats) -> Dataset:
    folds = _clamped_folds(cfg.folds, len(d.instances), "misclassified filter input")
    return misclassified_filter(d, cfg.learner, folds, seed)


# Every filter method by name. The entries look their filter function up
# when they run, so a wrapper put on a module attribute (as the benchmark
# does) sees every call.
FILTERS = {
    "none": Filter(lambda d, cfg, seed, stats: d),
    "pvs": Filter(lambda d, cfg, seed, stats: pvs(d, cfg.selection(seed), stats), True),
    "pvs_plus": Filter(
        lambda d, cfg, seed, stats: pvs_plus(d, cfg.selection(seed), stats), True
    ),
    "reservoir": Filter(lambda d, cfg, seed, stats: reservoir_select(d, cfg.fraction, seed)),
    "misclassified": Filter(_misclassified),
    "drop_columns": Filter(lambda d, cfg, seed, stats: drop_columns(d, cfg.columns)),
    "random_value": Filter(lambda d, cfg, seed, stats: random_value_removal(d, cfg.rate, seed)),
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

    def to_table(self) -> str:
        return format_report_table([self])

    def save(self, path, include_timings: bool = False) -> None:
        Path(path).write_text(self.to_json(include_timings), encoding="utf-8")


def format_report_table(reports) -> str:
    """Aligned text table, one row per report."""
    rows = [("dataset", "method", "eps", "Acc_o", "Acc_p", "|M_o|", "|M_p|", "MR", "AR", "X")]
    for r in reports:
        rows.append(
            (
                r.dataset,
                r.config.get("method", "?"),
                format(r.config.get("epsilon", ""), "g"),
                f"{r.acc_original:.4f}",
                f"{r.acc_filtered:.4f}",
                f"{r.size_original:.1f}",
                f"{r.size_filtered:.1f}",
                f"{r.mr:.4f}",
                f"{r.ar:.4f}",
                f"{r.harmonic:.4f}" if r.harmonic is not None else UNDEFINED,
            )
        )
    return aligned_table(rows)


def _clamped_folds(requested: int, n: int, what: str) -> int:
    if n < 2:
        raise DataError(f"{what} left {n} instances, too few to cross-validate")
    if requested > n:
        log.warning("%s has %d instances; clamping folds from %d", what, n, requested)
        return n
    return requested


def _stats_for(d: Dataset, cfg: ExperimentConfig):
    """d's metric table when cfg.method reads one, else None."""
    return compute_stats(d, cfg.dataset_entropy) if FILTERS[cfg.method].needs_stats else None


def run_experiment(d: Dataset, cfg: ExperimentConfig) -> EvalReport:
    """Discretize, filter, train and score both arms; see module docstring."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if cfg.fold_safe:
        original_runs, filtered_runs = _run_fold_safe(d, cfg, timings)
        n_report = len(d.instances)
    else:
        d_disc = discretize.apply(discretize.fit(d, cfg.disc_method, cfg.bins), d)
        timings["discretize"] = time.perf_counter() - t0
        n_report = len(d_disc.instances)

        t1 = time.perf_counter()
        folds_o = _clamped_folds(cfg.folds, len(d_disc.instances), "dataset")
        original_runs = _cv_records(d_disc, cfg.learner, folds_o, cfg.seed, cfg.seed)
        timings["baseline"] = time.perf_counter() - t1

        t2 = time.perf_counter()
        stats = _stats_for(d_disc, cfg)

        def one_repeat(rep: int):
            fseed = cfg.seed + rep
            d_f = filter_dataset(d_disc, cfg, fseed, stats)
            folds_p = _clamped_folds(cfg.folds, len(d_f.instances), "filtered dataset")
            return _cv_records(d_f, cfg.learner, folds_p, cfg.seed, fseed)

        if cfg.method == "none":
            # reuse baseline records; a null filter must give MR = 0, AR = 1 exactly
            filtered_runs = list(original_runs)
        elif cfg.jobs > 1:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                batches = list(pool.map(one_repeat, range(cfg.repeats)))
            filtered_runs = [r for batch in batches for r in batch]
        else:
            filtered_runs = [
                r for rep in range(cfg.repeats) for r in one_repeat(rep)
            ]
        timings["filter_evaluate"] = time.perf_counter() - t2

    acc_o, size_o = _means(original_runs)
    acc_p, size_p = _means(filtered_runs)
    mr_value = mr(size_o, size_p)
    ar_value = ar(acc_o, acc_p)
    return EvalReport(
        dataset=d.name,
        n_instances=n_report,
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


def _run_fold_safe(d: Dataset, cfg: ExperimentConfig, timings: dict):
    """Refit discretization, stats and the filter inside every training fold."""
    t0 = time.perf_counter()
    folds = _clamped_folds(cfg.folds, len(d.instances), "dataset")
    rows = d.instances
    original_runs: list[RunRecord] = []
    filtered_runs: list[RunRecord] = []
    for f, train, test in fold_splits(d, folds, cfg.seed):
        train_d = d.with_instances([rows[i] for i in train])
        test_d = d.with_instances([rows[i] for i in test])
        spec = discretize.fit(train_d, cfg.disc_method, cfg.bins)
        train_d = discretize.apply(spec, train_d)
        test_d = discretize.apply(spec, test_d)
        original_runs.append(
            _fold_record(cfg.learner, train_d, test_d.instances, test_d, cfg.seed, f)
        )
        stats = _stats_for(train_d, cfg)
        if cfg.method == "none":
            # reuse the fold's baseline record so MR = 0, AR = 1 exactly
            filtered_runs.append(original_runs[-1])
            continue
        for rep in range(cfg.repeats):
            fseed = cfg.seed + rep
            d_f = filter_dataset(train_d, cfg, fseed, stats)
            if not d_f.instances:
                raise DataError(f"fold {f}: filter removed every training instance")
            filtered_runs.append(
                _fold_record(cfg.learner, d_f, test_d.instances, test_d, fseed, f)
            )
    timings["fold_safe"] = time.perf_counter() - t0
    return original_runs, filtered_runs
