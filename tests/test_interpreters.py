"""The same report bytes under every supported Python.

A small pinned experiment runs in a child process under each of
python3.10 ... python3.13 found on PATH, and its output must equal, byte
for byte, the same child run by the interpreter running the tests. The
child needs only the standard library and valsel's src/, since the other
interpreters may lack pytest. An interpreter that is not installed, or
that cannot start, is skipped.

The experiment covers the float paths a report goes through: a tree on
data with missing slots (fractional fan-out weights) and weighted rows,
rules, a fold-safe MDL run, a stats table, and the dataset confusion H(D)
of a seeded 300x6 categorical dataset; on that dataset and the weighted
one, every value's entropy in base |L| and information gain are printed
to the bit under both dataset_entropy modes. The weighted trees are also
printed with every float at cf 0.01, 0.1 and 0.49 and min_leaf 1, where
pruning during growth adds estimates and compares them with lower bounds,
and so is the unit tree on the plain data with 30% of its slots cleared
by random_value_removal, whose unit nodes wrap their items into weighted
pairs where a split's feature is missing and hand counts down elsewhere.
On the weighted data, pvs_plus by both metrics prints its mask, which it
reads by comparing the columns before and after, its deleted instances
and what is left, and random_value_removal at rate 0.3 what it leaves.
Then come the bytes the CSV and ARFF writers write for tokens that need
quoting, a NUL (which csv.writer could not write before Python 3.11),
rows of one empty field and a carriage return. Last, the ids a small ARFF
load gives: a numeric attribute and a nominal one, padded and quoted
tokens, a quoted '?' value and a declared value that does not name
itself, so every interpreter names tokens in the same order.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import random
from valsel import (ExperimentConfig, LearnerSpec, VSConfig, apply_discretization, compute_stats,
                    dataset_from_rows, fit, pvs_plus, random_value_removal, run_experiment,
                    train_rules, train_tree)

rng = random.Random(7)
rows, labels, weights = [], [], []
for _ in range(400):
    xs = [rng.gauss(0.0, 1.0) for _ in range(5)]
    labels.append("abc"[(xs[0] + 0.6 * xs[1] - 0.4 * xs[2] + rng.gauss(0.0, 0.5) > 0)
                        + (xs[0] > 0.8)])
    rows.append([None if rng.random() < 0.15 else f"{v:.3f}" for v in xs])
    weights.append(rng.choice([1.0, 0.5, 0.7, 1.3]))
names = [f"x{k}" for k in range(5)]
plain = dataset_from_rows("plain", names, rows, labels)
weighted = dataset_from_rows("weighted", names, rows, labels, weights=weights)

for d in (plain, weighted):
    disc = apply_discretization(fit(d, "frequency", 5), d)
    print(train_tree(disc).to_text())
    print(train_rules(disc).to_text())
    print(compute_stats(disc).format_table("infogain", 0.7))
    if d is plain:  # unit items wrapped where a split's feature is missing, every float
        print(repr(train_tree(random_value_removal(disc, 0.3, 0)).root))
# pvs_plus's mask, read from the columns, and its deletion test; random value removal
stats = compute_stats(disc)
for iota in ("entropy", "infogain"):
    out = pvs_plus(disc, VSConfig(iota, 0.8, 0), stats)
    print(repr((out.removed_value_mask, out.removed_instances, out.removed_features,
                out.filtered.instances.columns, out.filtered.instances.weights)))
print(repr(random_value_removal(disc, 0.3, 0).instances.columns))
# weighted and fanned-out trees pruned as they grow, every float to the bit
for cf in (0.01, 0.1, 0.49):
    print(repr(train_tree(disc, 1, cf).root))
runs = [
    (plain, ExperimentConfig(disc_method="frequency", bins=5, method="pvs_plus", epsilon=0.8,
                             repeats=2, folds=3, learner=LearnerSpec("tree"))),
    (weighted, ExperimentConfig(disc_method="binning", bins=4, method="pvs", epsilon=1.0,
                                repeats=2, folds=3, learner=LearnerSpec("rules"))),
    (plain, ExperimentConfig(disc_method="mdl", method="pvs_plus", epsilon=1.0, repeats=2,
                             folds=3, fold_safe=True, learner=LearnerSpec("rules"))),
    (weighted, ExperimentConfig(disc_method="mdl", method="random_value", rate=0.2,
                                repeats=1, folds=3, fold_safe=True)),
]
for d, cfg in runs:
    print(run_experiment(d, cfg).to_json(), end="")
# H(D) adds 36 value entropies; a compensated sum rounds this one differently
rng = random.Random(0)
cells = [[rng.choice("pqrstu") for _ in range(6)] for _ in range(300)]
cats = dataset_from_rows("cats", [f"c{k}" for k in range(6)], cells, [rng.choice("xyz") for _ in cells])
print(repr(compute_stats(cats).dataset_confusion))
# every value's H in base |L| and its IG, to the bit, under both H(D) modes
for d in (disc, cats):
    for mode in ("value-sum", "class"):
        table = compute_stats(d, mode)
        print(repr([(s.entropy, s.info_gain) for s in table.entries()]),
              repr(table.dataset_confusion))
# The writers' bytes: quoted tokens, a NUL, blanks, rows of one empty field,
# and a carriage return, which has every CSV field quoted (ARFF cannot hold it)
import tempfile
from pathlib import Path
from valsel import save_dataset
tricky = dataset_from_rows("tricky", ["a,b", 'q"t', "sp ace"],
                           [["x,y", 'say "hi"', ""], ["n\0l", None, " \xe9\t"], ["?", "a", "b"]],
                           ["p", "", "q r"])
lone = dataset_from_rows("lone", [], [[], []], ["", "x"])
cr = dataset_from_rows("cr", ["c\r"], [["a\nb"], [None], ["\0"]], ["p", "q", ""])
with tempfile.TemporaryDirectory() as tmp:
    for d, formats in ((tricky, ("csv", "arff")), (lone, ("csv", "arff")), (cr, ("csv",))):
        for fmt in formats:
            path = Path(tmp) / f"{d.name}.{fmt}"
            save_dataset(d, path, fmt)
            print(path.read_bytes())
# The ids a load gives: a numeric column named by first appearance, padded
# and quoted tokens merging, a quoted '?' value, a declared ' a' that only
# its quoted token names, and a weighted row
from valsel import load_arff
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "pin.arff"
    path.write_text("@relation pin\n@attribute n numeric\n@attribute m {' a',b,'?',c}\n"
                    "@attribute class {y,'x z'}\n@data\n2.5, b,y\n'2.5',' a','x z'\n"
                    "1.0,'?',y,{2}\n?, c ,'x z'\n1.0 ,?,y\n", encoding="utf-8")
    d = load_arff(path)
    print(repr(([f.values for f in d.features], d.labels, d.instances.columns,
                d.instances.label_ids, d.instances.weights)))
"""


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pyenv = shutil.which("pyenv")
    if pyenv:
        # pyenv's shims run only the selected versions (a shim that started
        # this interpreter selected just its own), so select every installed one
        out = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True)
        if out.returncode == 0:
            selected = env.get("PYENV_VERSION", "").split(":") + out.stdout.split()
            env["PYENV_VERSION"] = ":".join(dict.fromkeys(v for v in selected if v))
    return env


def _run(exe: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([exe, "-c", CHILD], capture_output=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def reference():
    env = _child_env()
    out = _run(sys.executable, env)
    assert out.returncode == 0, out.stderr.decode()
    return env, out.stdout


@pytest.mark.parametrize("minor", [10, 11, 12, 13])
def test_reports_are_byte_identical_across_interpreters(minor, reference):
    env, want = reference
    exe = shutil.which(f"python3.{minor}", path=env.get("PATH"))
    if exe is None:
        pytest.skip(f"python3.{minor} is not installed")
    probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                           capture_output=True, text=True, env=env, timeout=60)
    if probe.returncode != 0 or probe.stdout.strip() != str((3, minor)):
        pytest.skip(f"python3.{minor} does not start")
    got = _run(exe, env)
    assert got.returncode == 0, got.stderr.decode()
    assert got.stdout == want
