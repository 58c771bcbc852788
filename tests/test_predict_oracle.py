"""Differential test: compiled prediction against token-routing prediction.

The functions _tokens, _node_distribution, tree_predict and rules_predict
below are a verbatim copy of the prediction code that the compiled form
in valsel.classifiers replaced: a dict of value tokens per instance,
routed through the tree or matched against each rule's (name, token)
conditions. predict and predict_ids must agree with it exactly (labels
and distribution tuples compared with ==) on seeded random data, for
both learners, on schemas other than the training one:

* the training schema itself;
* a re-interned schema with feature order, value order and label order
  permuted;
* a pvs-filtered schema, whose features lack tokens the model saw;
* a training subset scored on the full schema, so the test rows carry
  tokens the model never saw;
* a schema without one of the model's split or rule features.

Fold scoring through evaluate._fold_record must give the record the
per-instance loop gave.
"""

from __future__ import annotations

import pickle
import random

import pytest

from valsel import VSConfig, compute_stats, dataset_from_rows, drop_columns, pvs
from valsel.classifiers import (
    Leaf,
    LearnerSpec,
    Rule,
    RuleModel,
    Split,
    TreeModel,
    _argmax_low,
    _normalized,
    train_rules,
    train_tree,
)
from valsel.data import MISSING, Dataset
from valsel.evaluate import RunRecord, _fold_record

from conftest import rule_features, split_features, value_token


# ---------------------------------------------------------------------------
# Reference oracle: token-routing prediction, verbatim
# ---------------------------------------------------------------------------


def _tokens(m, inst, schema: Dataset | None) -> dict[str, str | None]:
    """Value token per feature name, None for MISSING; schema None means m's own."""
    features = schema.features if schema is not None else m.features
    return {f.name: (None if z == MISSING else f.values[z]) for f, z in zip(features, inst.slots)}


def _node_distribution(node, tokens, n_labels):
    if isinstance(node, Leaf):
        return _normalized(node.counts)
    tok = tokens.get(node.name)
    if tok is not None and tok in node.children:
        return _node_distribution(node.children[tok], tokens, n_labels)
    mixed = [0.0] * n_labels
    for t, child in node.children.items():
        bw = node.branch_weights[t]
        dist = _node_distribution(child, tokens, n_labels)
        for l in range(n_labels):
            mixed[l] += bw * dist[l]
    return mixed


def tree_predict(self, inst, schema: Dataset | None = None):
    dist = _node_distribution(self.root, _tokens(self, inst, schema), len(self.labels))
    return self.labels[_argmax_low(dist)], tuple(dist)


def rules_predict(self, inst, schema: Dataset | None = None):
    tokens = _tokens(self, inst, schema)
    for rule in self.rules:
        if all(tokens.get(f) == v for f, v in rule.conditions):
            return self.labels[rule.label], rule.distribution
    return self.labels[self.rules[-1].label], self.rules[-1].distribution


def oracle_predict(model, inst, schema):
    if isinstance(model, TreeModel):
        return tree_predict(model, inst, schema)
    return rules_predict(model, inst, schema)


def oracle_fold_record(model, test, schema: Dataset, seed: int, fold: int):
    """The per-instance scoring loop of _fold_record, verbatim."""
    good = total = 0.0
    for inst in test:
        label, _ = oracle_predict(model, inst, schema)
        total += inst.weight
        if label == schema.labels[inst.label]:
            good += inst.weight
    return RunRecord(seed, fold, good / total, model.size)


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


WEIGHTINGS = ("unit", "fractional")
LEARNERS = (
    ("tree", lambda d: train_tree(d)),
    ("tree-unpruned", lambda d: train_tree(d, min_leaf=1, cf=1.0)),
    ("rules", lambda d: train_rules(d)),
)


def random_weighted_dataset(seed: int, weighting: str) -> Dataset:
    """20-300 rows, 2-6 features, 2-4 labels, 15% missing slots.

    Labels follow f0 and f1 most of the time, so trees split and rule
    lists grow real conditions.
    """
    rng = random.Random(seed)
    n = rng.randint(20, 300)
    n_features = rng.randint(2, 6)
    n_labels = rng.randint(2, 4)
    n_values = [rng.randint(2, 5) for _ in range(n_features)]
    rows, labels = [], []
    for _ in range(n):
        row = [
            None if rng.random() < 0.15 else f"v{rng.randrange(n_values[x])}"
            for x in range(n_features)
        ]
        rows.append(row)
        known = [int(t[1:]) for t in row[:2] if t is not None]
        if known and rng.random() < 0.8:
            labels.append(f"c{sum(known) % n_labels}")
        else:
            labels.append(f"c{rng.randrange(n_labels)}")
    weights = None if weighting == "unit" else [rng.random() * 3 for _ in range(n)]
    return dataset_from_rows(
        f"predict{seed}",
        [f"f{x}" for x in range(n_features)],
        rows,
        labels,
        label_domain=tuple(f"c{c}" for c in range(n_labels)),
        weights=weights,
    )


def reinterned(d: Dataset, seed: int) -> Dataset:
    """d's rows with feature, value and label order shuffled."""
    rng = random.Random(seed)
    order = list(range(len(d.features)))
    rng.shuffle(order)
    domains = []
    for x in order:
        values = list(d.features[x].values)
        rng.shuffle(values)
        domains.append(tuple(values))
    labels = list(d.labels)
    rng.shuffle(labels)
    rows = [[value_token(d, x, inst.slots[x]) for x in order] for inst in d.instances]
    return dataset_from_rows(
        "re",
        [d.features[x].name for x in order],
        rows,
        [d.labels[inst.label] for inst in d.instances],
        domains=domains,
        label_domain=tuple(labels),
        weights=[inst.weight for inst in d.instances],
    )


def model_features(model) -> set[str]:
    if isinstance(model, TreeModel):
        return split_features(model)
    return rule_features(model)


def schemas(model, d: Dataset, seed: int):
    """(kind, schema) pairs whose instances the model is scored on."""
    yield "training", d
    yield "reinterned", reinterned(d, seed)
    filtered = pvs(d, VSConfig(epsilon=1.0, seed=seed), compute_stats(d)).filtered
    yield "pvs-filtered", filtered
    used = sorted(model_features(model))
    if used:
        yield "without-" + used[0], drop_columns(d, [used[0]])
        yield "without-all", drop_columns(d, used)


def assert_matches_oracle(model, schema: Dataset) -> None:
    insts = list(schema.instances)
    want = [oracle_predict(model, inst, schema) for inst in insts]
    assert [model.predict(inst, schema) for inst in insts] == want
    assert [model.labels[y] for y in model.predict_ids(insts, schema)] == [w[0] for w in want]


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name, learn", LEARNERS, ids=[n for n, _ in LEARNERS])
def test_compiled_prediction_matches_token_routing(name, learn, weighting):
    kinds = set()
    for seed in range(12):
        d = random_weighted_dataset(seed, weighting)
        model = learn(d)
        for kind, schema in schemas(model, d, seed):
            kinds.add(kind.split("-")[0])
            assert_matches_oracle(model, schema)
        # the model's own schema is the default
        inst = d.instances[0]
        assert model.predict(inst) == oracle_predict(model, inst, None)
        assert model.predict_ids([inst]) == model.predict_ids([inst], d)
    assert kinds == {"training", "reinterned", "pvs", "without"}


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name, learn", LEARNERS, ids=[n for n, _ in LEARNERS])
def test_unseen_tokens_score_as_the_oracle_scores_them(name, learn, weighting):
    for seed in range(12):
        d = random_weighted_dataset(seed, weighting)
        rows = d.instances
        # train on rows whose f1 is not v0, so v0 is a token the model never saw
        train = d.with_instances([r for r in rows if value_token(d, 1, r.slots[1]) != "v0"])
        if not train.instances:
            continue
        model = learn(train)
        assert_matches_oracle(model, d)
        assert_matches_oracle(model, reinterned(d, seed))


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("kind", ("tree", "rules"))
def test_fold_record_matches_per_instance_scoring(kind, weighting):
    learner = LearnerSpec(kind=kind)
    for seed in range(12):
        d = random_weighted_dataset(seed, weighting)
        rows = d.instances
        train = d.with_instances(rows[: len(rows) // 2])
        model = learner.train(train)
        for _, schema in schemas(model, d, seed):
            test = list(schema.instances)
            if not test or sum(inst.weight for inst in test) <= 0:
                continue
            got = _fold_record(learner, train, schema, seed, 3)
            assert got == oracle_fold_record(model, test, schema, seed, 3)


def test_oracle_cases_exercise_every_route():
    # Guard against a vacuous comparison: the cases must hold real
    # splits, missing-value fan-out and rule lists longer than the default.
    fanouts = deep = long_lists = 0
    for seed in range(12):
        d = random_weighted_dataset(seed, "unit")
        tree = train_tree(d, min_leaf=1, cf=1.0)
        deep += tree.size > 5
        long_lists += train_rules(d).size > 2
        fanouts += sum(
            inst.slots[tree.root.feature] == MISSING
            for inst in d.instances
            if not isinstance(tree.root, Leaf)
        )
    assert deep >= 8 and long_lists >= 6 and fanouts >= 20


def test_a_rule_with_an_unknown_token_never_matches():
    d = dataset_from_rows("t", ["f", "g"], [["x", "u"], ["y", "v"]], ["A", "B"])
    m = RuleModel(
        rules=(
            Rule((("f", "z"),), 0, (1.0, 0.0)),
            Rule((("h", "x"),), 0, (1.0, 0.0)),
            Rule((("g", "v"),), 1, (0.0, 1.0)),
            Rule((), 0, (0.75, 0.25)),
        ),
        labels=d.labels,
        features=d.features,
    )
    assert [m.predict(inst, d) for inst in d.instances] == [
        ("A", (0.75, 0.25)),
        ("B", (0.0, 1.0)),
    ]
    assert m.predict_ids(d.instances, d) == [0, 1]


@pytest.mark.parametrize("name, learn", LEARNERS, ids=[n for n, _ in LEARNERS])
def test_a_cache_entry_for_another_features_tuple_is_never_used(name, learn):
    # After a pickle round trip the cache's id keys no longer name live
    # tuples, so one may collide with a schema's; the entry must be ignored.
    d = random_weighted_dataset(3, "unit")
    model = learn(d)
    want = [oracle_predict(model, inst, d) for inst in d.instances]
    copy = pickle.loads(pickle.dumps(model))
    copy.__dict__["_by_schema"] = {id(d.features): (d.features[:1], [])}
    assert [copy.predict(inst, d) for inst in d.instances] == want
    assert [copy.labels[y] for y in copy.predict_ids(d.instances, d)] == [w[0] for w in want]


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("name, learn", LEARNERS[:2], ids=[n for n, _ in LEARNERS[:2]])
def test_predict_ids_matches_predict_on_repeated_slot_tuples(name, learn, weighting):
    # A pvs-filtered fold repeats a few slot tuples many times, and many of
    # them miss a split feature; predict_ids routes each distinct tuple once.
    repeated = fanned = 0
    for seed in range(12):
        d = random_weighted_dataset(seed, weighting)
        model = learn(d)
        filtered = pvs(d, VSConfig(epsilon=1.0, seed=seed), compute_stats(d)).filtered
        rows = list(filtered.instances)
        test = rows + rows[::-1] + rows[::3]
        random.Random(seed).shuffle(test)
        want = [model.predict(inst, filtered)[0] for inst in test]
        assert [model.labels[y] for y in model.predict_ids(test, filtered)] == want
        assert [oracle_predict(model, inst, filtered)[0] for inst in test] == want
        repeated += len({inst.slots for inst in rows}) < len(rows) // 2
        if isinstance(model.root, Split):
            x = [f.name for f in filtered.features].index(model.root.name)
            fanned += any(inst.slots[x] == MISSING for inst in test)
    assert repeated >= 6 and fanned >= 3
