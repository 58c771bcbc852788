"""The attributes the benchmark wraps must exist and be reached.

bench/worker.py times and counts layers by replacing module attributes
and class attributes with wrappers, looked up by name. A refactor that
renames one of them, or that binds a filter at import time so calls
bypass the attribute, would make the benchmark's row guard read 0; these
tests show that break in the ordinary test run.
"""

from __future__ import annotations

import importlib

import pytest

import valsel.classifiers as cls
import valsel.cli as cli
import valsel.discretize as disc
import valsel.evaluate as ev
import valsel.selection as sel
from valsel import Dataset, ExperimentConfig, RuleModel, TreeModel, save_dataset

from conftest import random_dataset

HOOKS = {
    "valsel.evaluate": ("pvs", "pvs_plus", "compute_stats", "stratified_fold_assignment",
                        "run_experiment"),
    "valsel.selection": ("pvs", "pvs_plus"),
    "valsel.cli": ("main", "load_dataset", "save_dataset", "compute_stats"),
    "valsel.discretize": ("fit", "apply"),
    "valsel.classifiers": ("train_tree", "train_rules"),
}


#: Methods the tracer looks up with vars(owner), so they must be defined
#: in the class body itself, not inherited or bound elsewhere.
CLASS_HOOKS = {TreeModel: "predict", RuleModel: "predict", Dataset: "with_instances"}


@pytest.mark.parametrize("module", sorted(HOOKS))
def test_hooked_names_exist(module):
    mod = importlib.import_module(module)
    for name in HOOKS[module]:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("owner", list(CLASS_HOOKS), ids=lambda c: c.__name__)
def test_hooked_methods_are_defined_in_the_class_body(owner):
    assert callable(vars(owner).get(CLASS_HOOKS[owner])), f"{owner.__name__}.{CLASS_HOOKS[owner]}"


def counting(monkeypatch, owner, name) -> list:
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("fold_safe", [False, True])
def test_run_experiment_reaches_the_hooks(monkeypatch, fold_safe):
    d = random_dataset(4, n=40)
    filters = counting(monkeypatch, ev, "pvs_plus")
    sel_calls = counting(monkeypatch, sel, "pvs_plus")
    others = {
        name: counting(monkeypatch, owner, name)
        for owner, name in ((ev, "compute_stats"), (ev, "stratified_fold_assignment"),
                            (disc, "fit"), (disc, "apply"), (cls, "train_tree"))
    }
    cfg = ExperimentConfig(method="pvs_plus", epsilon=1.0, repeats=2, folds=3,
                           fold_safe=fold_safe)
    ev.run_experiment(d, cfg)
    # every filter call passes exactly one of the two wrapped attributes
    assert len(filters) + len(sel_calls) == (6 if fold_safe else 2)
    for name, calls in others.items():
        assert calls, name


def test_cli_filter_reaches_the_hooks(monkeypatch, tmp_path):
    src = tmp_path / "in.arff"
    save_dataset(random_dataset(5, n=40), src)
    filters = counting(monkeypatch, ev, "pvs_plus")
    sel_calls = counting(monkeypatch, sel, "pvs_plus")
    stats = counting(monkeypatch, cli, "compute_stats")
    io = counting(monkeypatch, cli, "load_dataset")
    saves = counting(monkeypatch, cli, "save_dataset")
    fits = counting(monkeypatch, disc, "fit")
    code = cli.main(["filter", "--input", str(src), "--method", "pvs_plus",
                     "--output", str(tmp_path / "out.arff"),
                     "--stats-out", str(tmp_path / "stats.txt")])
    assert code == 0
    assert len(filters) + len(sel_calls) == 1
    assert len(stats) == 1  # computed once, shared by the filter and the table
    assert io and saves and fits
