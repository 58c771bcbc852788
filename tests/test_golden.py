"""Byte-level pins of the CLI and config surface.

The digests below were recorded before the filter registry and the
single experiment config replaced the per-method dispatch; any refactor
of those layers must keep every one of them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from valsel import ConfigError, ExperimentConfig, LearnerSpec
from valsel.cli import load_config_file, main


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def golden_csv(tmp_path):
    """60 rows: two numeric and two categorical features, 3 labels, some '?'."""
    rng = random.Random(11)
    lines = ["n1,n2,c1,c2,class"]
    for _ in range(60):
        n1 = rng.gauss(0.0, 1.0)
        n2 = rng.uniform(0.0, 10.0)
        c1 = rng.choice("abc")
        c2 = rng.choice(["p", "q", "?"])
        score = n1 + (0.8 if c1 == "a" else 0.0) + rng.gauss(0.0, 0.5)
        label = "lo" if score < -0.4 else ("mid" if score < 0.6 else "hi")
        n2_tok = "?" if rng.random() < 0.05 else f"{n2:.2f}"
        lines.append(f"{n1:.3f},{n2_tok},{c1},{c2},{label}")
    path = tmp_path / "golden.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


COMMON = ["--disc-method", "frequency", "--bins", "3", "--seed", "1", "--epsilon", "0.6"]

FILTER_ARGS = {
    "none": [],
    "pvs": [],
    "pvs_plus": ["--iota", "infogain", "--dataset-entropy", "class"],
    "reservoir": ["--fraction", "0.3"],
    "misclassified": ["--learner", "rules"],
    "drop_columns": ["--drop", "n1,c1"],
    "random_value": ["--rate", "0.3"],
}

# (filtered.arff, audit.txt, stats.txt); `none` is run without --stats-out
FILTER_DIGESTS = {
    "none": (
        "8bd8bf77a2c1f2023898d336e506585129b172819e325a06ebac7732fd749a8b",
        "030e2008c5120fdc08151054e15560c86c1b22a391068825e2bf762addb739a6",
        None,
    ),
    "pvs": (
        "d8dc51524cd12b77310a2c815c642e45269321cce2a601eecc584c4e6edf2031",
        "93aa079d33cb0fd5818ba6158fe157a00692a48a1d803e105a4779b023b3a4f4",
        "d9f9de59abb8caa8ae5919b4989181ac5e89be0e3b6b1ac6feec0fa0c341ccc9",
    ),
    "pvs_plus": (
        "f577b5695bb3be96e43727b7454ee755ad423fe3125d94c43e7817f391e4d00e",
        "87d8ec01b2aaa978bde63df3845de6c6dd3d59916efa9d7424318c385d7459dd",
        "ab8fd1f08ecd22a089fa07aa589f4affa60d57485b9037e196c9f3d4d4281f1a",
    ),
    "reservoir": (
        "4ede63e17188693ec8d8be33aa18f59f60628533e090d1262a00fb67537e8c8a",
        "76f42ac0c19917b3b1b6fc594146516cc30324376824f8763b2fdcf3ff042669",
        "d9f9de59abb8caa8ae5919b4989181ac5e89be0e3b6b1ac6feec0fa0c341ccc9",
    ),
    "misclassified": (
        "301b3a366a4cfa451ff3824cd5e055e576996f4711aada0cdf27107afea3c9fc",
        "58cdf828bad4467f0d91e6413f41fc02d0997e0daf2f1a668a8beae1f54c6a8a",
        "d9f9de59abb8caa8ae5919b4989181ac5e89be0e3b6b1ac6feec0fa0c341ccc9",
    ),
    "drop_columns": (
        "4abd10afee5eb00074d8924e1a78b87162179de9db3c1929c73b020d975a293f",
        "33de52b4e7f820fdbee87ae906767216e47d1426e2a4fadb28183ae01ea8c389",
        "d9f9de59abb8caa8ae5919b4989181ac5e89be0e3b6b1ac6feec0fa0c341ccc9",
    ),
    "random_value": (
        "e72d85ffa14be67e6c1342fe06d2fbc338618d75f79be8235d3bdf60408995ef",
        "401797578016b4b91c469193752d5eafed59fcfdcedd112ff83b95ad9e74e5f5",
        "d9f9de59abb8caa8ae5919b4989181ac5e89be0e3b6b1ac6feec0fa0c341ccc9",
    ),
}


def run_filter(golden_csv, tmp_path, method, stats=True):
    out, audit, table = (tmp_path / f"{method}.{ext}" for ext in ("arff", "audit", "stats"))
    argv = ["filter", "--input", str(golden_csv), "--method", method, *COMMON,
            *FILTER_ARGS[method], "--output", str(out), "--audit-out", str(audit)]
    if stats:
        argv += ["--stats-out", str(table)]
    assert main(argv) == 0
    return out, audit, table


@pytest.mark.parametrize("method", sorted(FILTER_DIGESTS))
def test_filter_outputs_are_pinned(golden_csv, tmp_path, method):
    want_out, want_audit, want_stats = FILTER_DIGESTS[method]
    out, audit, table = run_filter(golden_csv, tmp_path, method, stats=want_stats is not None)
    assert sha(out) == want_out
    assert sha(audit) == want_audit
    if want_stats is not None:
        assert sha(table) == want_stats


def test_filter_none_writes_the_same_stats_table_as_pvs(golden_csv, tmp_path):
    none_dir, pvs_dir = tmp_path / "none", tmp_path / "pvs"
    none_dir.mkdir()
    pvs_dir.mkdir()
    _, _, none_table = run_filter(golden_csv, none_dir, "none")
    _, _, pvs_table = run_filter(golden_csv, pvs_dir, "pvs")
    assert none_table.read_bytes() == pvs_table.read_bytes()


EXPERIMENTS = {
    "pvs_plus": (
        ["--epsilon", "0.8"],
        "a5942bb473e664950fa03ae7bd157998cafad8277c19b95b936bd49c9367be13",
    ),
    "reservoir": (
        ["--fraction", "0.5", "--fold-safe", "--learner", "rules"],
        "4ec3e73595bbf614e244b6e4c2d5b4f1524666fb01b15b8e6bb0a1fc200e81bc",
    ),
}


@pytest.mark.parametrize("method", sorted(EXPERIMENTS))
def test_experiment_reports_are_pinned(golden_csv, tmp_path, method):
    extra, want = EXPERIMENTS[method]
    report = tmp_path / "report.json"
    assert main([
        "experiment", "--input", str(golden_csv), "--method", method,
        "--disc-method", "frequency", "--bins", "3", "--seed", "1",
        "--repeats", "2", "--folds", "3", *extra, "--report", str(report),
    ]) == 0
    assert sha(report) == want


CONFIG_KEYS = {
    "input", "format", "class_index", "missing_token", "header", "output",
    "disc_method", "bins", "method", "iota", "epsilon", "seed", "repeats",
    "folds", "fold_safe", "jobs", "learner", "min_leaf", "cf",
    "prune_fraction", "fraction", "columns", "rate", "dataset_entropy",
}


def test_config_file_accepts_exactly_the_known_keys(tmp_path):
    conf = tmp_path / "all.conf"
    conf.write_text("".join(f"{k} = 1\n" for k in sorted(CONFIG_KEYS)), encoding="utf-8")
    assert set(load_config_file(conf)) == CONFIG_KEYS
    for key in ("kind", "learner_spec", "mode", "config", "verbose", "report",
                "timings", "epsilon_step", "spec_out", "audit_out", "stats_out",
                "output_format", "drop", "Method", "disc-method"):
        conf.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config_file(conf)


def test_experiment_config_as_dict_with_every_field_changed():
    cfg = ExperimentConfig(
        disc_method="mdl", bins=7, method="pvs", iota="infogain", epsilon=0.3,
        seed=4, repeats=2, folds=3, fold_safe=True, jobs=2,
        learner=LearnerSpec("rules", 3, 0.5, 0.25), fraction=0.2,
        columns=("a", "b"), rate=0.1, dataset_entropy="class",
    )
    assert json.dumps(cfg.as_dict()) == (
        '{"disc_method": "mdl", "bins": 7, "method": "pvs", "iota": "infogain", '
        '"epsilon": 0.3, "seed": 4, "repeats": 2, "folds": 3, "fold_safe": true, '
        '"learner": {"kind": "rules", "min_leaf": 3, "cf": 0.5, "prune_fraction": 0.25}, '
        '"fraction": 0.2, "columns": ["a", "b"], "rate": 0.1, "dataset_entropy": "class"}'
    )
