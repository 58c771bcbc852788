"""Differential test: run_experiment against a naive composition of the stage oracles.

run_experiment_oracle below follows the protocol the README states, with
plain loops and no generator, no Dataset.take and no memo:

* the folds come from stratified_fold_assignment, the RNG spec, imported;
* the dataset is discretized once, or under fold_safe each training fold
  is, with cuts from the equal-frequency and MDL-scan oracles of
  tests/test_discretize.py, on the features whose every observed token
  parses as a number in the whole dataset;
* the filters are pvs_oracle, pvs_plus_oracle and
  random_value_removal_oracle of tests/test_selection.py, Algorithm R and
  a column drop written out here, and the misclassified filter as a
  cross-validation of the oracle learner;
* the learners are the per-item tree of tests/test_tree_oracle.py, fed
  the training rows of positive weight, and the row-based rules of
  tests/test_rules_oracle.py; prediction is the token routing of
  tests/test_predict_oracle.py, and a model's size is counted here;
* the original runs are listed fold by fold; the filtered runs repeat by
  repeat, with folds clamped on a shrunken filtered dataset, or under
  fold_safe fold by fold with every repeat seed inside, where a filter
  that empties a training fold is a data error; "none" reuses the
  original runs.

On Hypothesis-drawn datasets of up to 60 rows, with numeric and
categorical features, missing slots and weights (0 among them), and
configs over every filter method, both fold_safe settings, both learners,
none/frequency/MDL discretization, 1-3 repeats and 2-5 folds,
run_experiment must give a report whose to_json() bytes equal the
oracle's, or raise the same exception type with the same text.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from bisect import bisect_left

from hypothesis import given, settings
from hypothesis import strategies as st

from valsel import CATEGORICAL, DISCRETIZED, ExperimentConfig, LearnerSpec, VSConfig
from valsel import compute_stats, dataset_from_rows, run_experiment
from valsel.classifiers import Leaf
from valsel.data import MISSING, Dataset, Feature, Instance
from valsel.discretize import interval_labels
from valsel.errors import ConfigError, DataError
from valsel.evaluate import FILTERS, UNDEFINED, stratified_fold_assignment

from test_discretize import equal_frequency_oracle, fit_mdl_scan_oracle
from test_predict_oracle import oracle_predict
from test_rules_oracle import train_rules as rules_oracle
from test_selection import pvs_oracle, pvs_plus_oracle, random_value_removal_oracle
from test_tree_oracle import train_tree as tree_oracle

# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def subset(d: Dataset, index) -> Dataset:
    """The rows of d at the positions in index, in that order."""
    return Dataset(d.features, [d.instances[i] for i in index], d.labels, d.name)


def parses(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def numeric_names(d: Dataset) -> list[str]:
    """Categorical features whose every observed token parses as a number."""
    return [
        f.name for x, f in enumerate(d.features)
        if f.kind == CATEGORICAL
        and all(parses(f.values[z]) for z in d.column(x) if z != MISSING)
    ]


def discretized(train: Dataset, method: str, bins: int, numeric, *others: Dataset):
    """train, then each of others, with the features named in numeric cut
    where train observes them, by cuts fitted on train."""
    cuts = {}
    if method != "none":
        label_ids = [inst.label for inst in train.instances]
        for x, f in enumerate(train.features):
            if f.name not in numeric:
                continue
            column = [None if z == MISSING else float(f.values[z]) for z in train.column(x)]
            if all(v is None for v in column):
                continue
            if method == "frequency":
                cuts[f.name] = equal_frequency_oracle(column, bins)
            else:
                cuts[f.name] = fit_mdl_scan_oracle(column, label_ids, f.name)
    out = []
    for d in (train, *others):
        if not cuts:
            out.append(d)
            continue
        features = [Feature(f.name, interval_labels(cuts[f.name]), DISCRETIZED)
                    if f.name in cuts else f for f in d.features]
        instances = []
        for inst in d.instances:
            slots = []
            for f, z in zip(d.features, inst.slots):
                if z != MISSING and f.name in cuts:
                    z = bisect_left(cuts[f.name], float(f.values[z]))
                slots.append(z)
            instances.append(Instance(tuple(slots), inst.label, inst.weight))
        out.append(Dataset(features, instances, d.labels, d.name))
    return out


def train(learner: LearnerSpec, d: Dataset):
    if learner.kind == "rules":
        return rules_oracle(d, learner.prune_fraction)
    positive = [inst for inst in d.instances if inst.weight > 0.0]
    if positive:
        d = Dataset(d.features, positive, d.labels, d.name)
    return tree_oracle(d, learner.min_leaf, learner.cf)


def model_size(model) -> int:
    if not hasattr(model, "root"):
        return len(model.rules)
    size, stack = 0, [model.root]
    while stack:
        node = stack.pop()
        size += 1
        if not isinstance(node, Leaf):
            stack.extend(node.children.values())
    return size


def hits(model, test: Dataset) -> list[bool]:
    return [oracle_predict(model, inst, test)[0] == test.labels[inst.label]
            for inst in test.instances]


def clamped(folds: int, n: int, what: str) -> int:
    if n < 2:
        raise DataError(f"{what} left {n} instances, too few to cross-validate")
    return min(folds, n)


def splits(d: Dataset, folds: int, seed: int):
    """(fold, train rows, test rows) of each fold, as a list."""
    fold_of = stratified_fold_assignment([inst.label for inst in d.instances], folds, seed)
    return [(f, [i for i, g in enumerate(fold_of) if g != f],
             [i for i, g in enumerate(fold_of) if g == f]) for f in range(folds)]


def record(learner, train_set: Dataset, test: Dataset, seed: int, fold: int) -> dict:
    model = train(learner, train_set)
    good = total = 0.0
    for inst, hit in zip(test.instances, hits(model, test)):
        total += inst.weight
        if hit:
            good += inst.weight
    if total <= 0:
        raise DataError("empty or zero-weight test fold")
    return {"seed": seed, "fold": fold, "accuracy": good / total, "model_size": model_size(model)}


def reservoir(d: Dataset, fraction: float, seed: int) -> Dataset:
    k = math.ceil(fraction * len(d.instances))
    kept = list(range(k))
    rng = random.Random(seed)
    for i in range(k, len(d.instances)):
        j = rng.randint(0, i)
        if j < k:
            kept[j] = i
    return subset(d, kept)


def dropped(d: Dataset, names) -> Dataset:
    for name in names:
        if name not in [f.name for f in d.features]:
            raise ConfigError(f"no feature named {name!r}")
    keep = [x for x, f in enumerate(d.features) if f.name not in names]
    instances = [Instance(tuple(inst.slots[x] for x in keep), inst.label, inst.weight)
                 for inst in d.instances]
    return Dataset([d.features[x] for x in keep], instances, d.labels, d.name)


def misclassified(d: Dataset, cfg: ExperimentConfig, seed: int) -> Dataset:
    folds = clamped(cfg.folds, len(d.instances), "misclassified filter input")
    keep = []
    for _, train_rows, test_rows in splits(d, folds, seed):
        model = train(cfg.learner, subset(d, train_rows))
        keep += [i for i, hit in zip(test_rows, hits(model, subset(d, test_rows))) if hit]
    return subset(d, sorted(keep))


def filtered(d: Dataset, cfg: ExperimentConfig, seed: int, stats) -> Dataset:
    selection = VSConfig(cfg.iota, cfg.epsilon, seed)
    if cfg.method == "pvs":
        return pvs_oracle(d, selection, stats).filtered
    if cfg.method == "pvs_plus":
        return pvs_plus_oracle(d, selection, stats).filtered
    if cfg.method == "random_value":
        return random_value_removal_oracle(d, cfg.rate, seed)
    if cfg.method == "reservoir":
        return reservoir(d, cfg.fraction, seed)
    if cfg.method == "drop_columns":
        return dropped(d, cfg.columns)
    return misclassified(d, cfg, seed)


def stats_of(d: Dataset, cfg: ExperimentConfig):
    return compute_stats(d, cfg.dataset_entropy) if cfg.method in ("pvs", "pvs_plus") else None


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def run_experiment_oracle(d: Dataset, cfg: ExperimentConfig) -> str:
    """The report's to_json() text."""
    original, filtered_runs = [], []
    learner, seeds = cfg.learner, [cfg.seed + rep for rep in range(cfg.repeats)]
    if not cfg.fold_safe:
        (disc,) = discretized(d, cfg.disc_method, cfg.bins, numeric_names(d))
        folds = clamped(cfg.folds, len(disc.instances), "dataset")
        for f, train_rows, test_rows in splits(disc, folds, cfg.seed):
            original.append(record(learner, subset(disc, train_rows), subset(disc, test_rows),
                                   cfg.seed, f))
        if cfg.method != "none":
            stats = stats_of(disc, cfg)
            for fseed in seeds:
                d_f = filtered(disc, cfg, fseed, stats)
                folds = clamped(cfg.folds, len(d_f.instances), "filtered dataset")
                for f, train_rows, test_rows in splits(d_f, folds, cfg.seed):
                    filtered_runs.append(record(learner, subset(d_f, train_rows),
                                                subset(d_f, test_rows), fseed, f))
    else:
        folds = clamped(cfg.folds, len(d.instances), "dataset")
        for f, train_rows, test_rows in splits(d, folds, cfg.seed):
            train_set, test = discretized(subset(d, train_rows), cfg.disc_method, cfg.bins,
                                          numeric_names(d), subset(d, test_rows))
            original.append(record(learner, train_set, test, cfg.seed, f))
            if cfg.method == "none":
                continue
            stats = stats_of(train_set, cfg)
            for fseed in seeds:
                d_f = filtered(train_set, cfg, fseed, stats)
                if not d_f.instances:
                    raise DataError(f"fold {f}: filter removed every training instance")
                filtered_runs.append(record(learner, d_f, test, fseed, f))
    if cfg.method == "none":
        filtered_runs = original

    acc_o = acc_p = 0.0  # added left to right
    for r in original:
        acc_o += r["accuracy"]
    for r in filtered_runs:
        acc_p += r["accuracy"]
    acc_o, acc_p = acc_o / len(original), acc_p / len(filtered_runs)
    size_o = sum(r["model_size"] for r in original) / len(original)
    size_p = sum(r["model_size"] for r in filtered_runs) / len(filtered_runs)
    mr = (size_o - size_p) / size_o
    if acc_o <= 0:
        raise DataError("accuracy ratio undefined for zero original accuracy")
    ar = acc_p / acc_o
    if mr <= 0 or ar + mr <= 0:
        harmonic = UNDEFINED
    else:
        harmonic = ar if ar == mr else 2.0 * ar * mr / (ar + mr)
    config = dataclasses.asdict(cfg)
    del config["jobs"]
    config["columns"] = list(cfg.columns)
    payload = {
        "dataset": {"name": d.name, "instances": len(d.instances), "features": len(d.features)},
        "config": config,
        "original": {"accuracy": acc_o, "model_size": size_o, "runs": original},
        "filtered": {"accuracy": acc_p, "model_size": size_p, "runs": filtered_runs},
        "metrics": {"mr": mr, "ar": ar, "harmonic": harmonic},
    }
    return json.dumps(payload, indent=1) + "\n"


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

NUMBERS = ["0", "1", "1.0", "2.5", "-3", "4", "7.25", "10"]
WORDS = ["a", "b", "c", "d"]


@st.composite
def experiments(draw):
    """A dataset of 1-60 rows and 0-4 features, numeric or categorical, with
    missing slots and weights (0 among them), and a config to run on it."""
    n = draw(st.integers(1, 60))
    n_features = draw(st.integers(0, 4))
    cells = []  # the tokens each feature draws from
    for _ in range(n_features):
        tokens = draw(st.sampled_from([NUMBERS, WORDS, NUMBERS[:3], WORDS + NUMBERS[:2]]))
        tokens = tokens[: draw(st.integers(1, len(tokens)))]
        if draw(st.integers(0, 3)) == 0:
            # a rare word leaves a numeric column categorical, though a
            # training fold may lack it
            tokens = tokens * 4 + ["x"]
        cells.append(tokens)
    missing = draw(st.sampled_from([0.0, 0.15, 0.5]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[None if rng.random() < missing else rng.choice(cs) for cs in cells]
            for _ in range(n)]
    classes = "pqr"[: draw(st.integers(1, 3))]
    if draw(st.booleans()) and cells:  # the label mostly follows the first feature
        labels = [classes[[None, *cells[0]].index(row[0]) % len(classes)]
                  if rng.random() < 0.8 else rng.choice(classes) for row in rows]
    else:
        labels = [rng.choice(classes) for _ in rows]
    weights = draw(st.sampled_from([None, [0.0, 0.5, 1.0, 2.0], [0.25, 1.0, 1.5],
                                    [0.0, 0.0, 0.0, 1.0, 2.0], "tied"]))
    if weights == "tied":  # only rows of weight 0 hold the first feature's last token
        weights = [0.0 if cells and row[0] == cells[0][-1] else 1.0 for row in rows]
    elif weights is not None:
        weights = [rng.choice(weights) for _ in rows]
    names = [f"f{x}" for x in range(n_features)]
    d = dataset_from_rows("drawn", names, rows, labels, weights=weights)

    kind = draw(st.sampled_from(["tree", "rules"]))
    learner = LearnerSpec(kind, min_leaf=draw(st.integers(1, 3)),
                          cf=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
                          prune_fraction=draw(st.sampled_from([0.0, 1.0 / 3.0, 0.5])))
    columns = draw(st.lists(st.sampled_from([*names, "nope"]), max_size=2, unique=True))
    cfg = ExperimentConfig(
        disc_method=draw(st.sampled_from(["none", "frequency", "mdl"])),
        bins=draw(st.integers(1, 4)),
        method=draw(st.sampled_from(sorted(FILTERS))),
        iota=draw(st.sampled_from(["entropy", "infogain"])),
        epsilon=draw(st.sampled_from([0.3, 0.7, 1.0])),
        seed=draw(st.integers(0, 3)),
        repeats=draw(st.integers(1, 3)),
        folds=draw(st.integers(2, 5)),
        fold_safe=draw(st.booleans()),
        jobs=draw(st.integers(1, 2)),
        learner=learner,
        fraction=draw(st.sampled_from([0.3, 0.6, 1.0])),
        columns=columns,
        rate=draw(st.sampled_from([0.0, 0.3, 0.7])),
        dataset_entropy=draw(st.sampled_from(["value-sum", "class"])),
    )
    return d, cfg


def outcome(fn, *args):
    try:
        return "report", fn(*args)
    except (ConfigError, DataError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=600, deadline=None)
@given(experiments())
def test_run_experiment_matches_the_naive_composition(case):
    d, cfg = case
    got = outcome(lambda: run_experiment(d, cfg).to_json())
    assert got == outcome(run_experiment_oracle, d, cfg)
