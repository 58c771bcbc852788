"""Shared fixtures: small datasets with hand-checkable statistics."""

from __future__ import annotations

import random

import pytest

from valsel import dataset_from_rows
from valsel.classifiers import Leaf, Split, _nodes
from valsel.data import MISSING


def value_token(d, x: int, z: int) -> str | None:
    """Token for value id z of feature x of d; None when z is MISSING."""
    return None if z == MISSING else d.features[x].values[z]


def n_leaves(tree) -> int:
    """A tree model's root-to-leaf path count."""
    return sum(isinstance(node, Leaf) for node in _nodes(tree.root))


def split_features(tree) -> set[str]:
    """Names of the features a tree model splits on."""
    return {node.name for node in _nodes(tree.root) if isinstance(node, Split)}


def rule_features(model) -> set[str]:
    """Names of the features a rule list's conditions test."""
    return {f for rule in model.rules for f, _ in rule.conditions}


def build_samples():
    """Five instances over four features, two classes, some slots missing.

    Feature f3 has three values: "2" (one class-1 instance, so its
    class-purity entropy is 0), "1" (one class-1 and two class-0
    instances, entropy 0.9183 in base 2) and "-1" (one class-1
    instance, entropy 0).
    """
    rows = [
        [None, "1", "2", "1"],
        ["1", None, "1", "1"],
        ["-1", "-2", "1", "-1"],
        ["-1", None, "1", "-2"],
        ["1", "1", "-1", None],
    ]
    labels = ["1", "1", "0", "0", "1"]
    return dataset_from_rows("samples", ["f1", "f2", "f3", "f4"], rows, labels)


@pytest.fixture
def samples():
    return build_samples()


def random_dataset(
    seed: int,
    n: int = 40,
    n_features: int = 4,
    n_labels: int = 2,
    n_values: int = 3,
    missing_rate: float = 0.1,
    name: str | None = None,
):
    """A seeded categorical dataset; labels weakly follow feature f0."""
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n):
        row = []
        for _x in range(n_features):
            if rng.random() < missing_rate:
                row.append(None)
            else:
                row.append(f"v{rng.randrange(n_values)}")
        rows.append(row)
        if row[0] is not None and rng.random() < 0.7:
            labels.append(str(int(row[0][1:]) % n_labels))
        else:
            labels.append(str(rng.randrange(n_labels)))
    # keep the label domain stable regardless of draw order
    domain = tuple(str(c) for c in range(n_labels))
    missing = [c for c in domain if c not in labels]
    for i, c in enumerate(missing):
        labels[i % len(labels)] = c
    return dataset_from_rows(
        name or f"rand{seed}",
        [f"f{x}" for x in range(n_features)],
        rows,
        labels,
        label_domain=domain,
    )


@pytest.fixture
def make_dataset():
    return random_dataset


def separable_dataset(seed: int = 0, n: int = 60, noise: float = 0.0, name: str = "sep"):
    """Label equals feature a; b and c are distractors, optional label noise."""
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n):
        a = rng.choice(["x", "y", "z"])
        rows.append([a, rng.choice(["p", "q"]), rng.choice(["u", "v", "w"])])
        lab = {"x": "0", "y": "1", "z": "2"}[a]
        if noise and rng.random() < noise:
            lab = rng.choice(["0", "1", "2"])
        labels.append(lab)
    return dataset_from_rows(
        name, ["a", "b", "c"], rows, labels, label_domain=("0", "1", "2")
    )


@pytest.fixture
def make_separable():
    return separable_dataset
