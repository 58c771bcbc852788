"""Compact classifiers whose size is the quantity under study.

train_tree grows a multiway decision tree: at each node the feature
with the highest gain ratio among those with positive gain is chosen
(ties go to the lowest feature index), with one branch per value
observed there. Instances missing the split feature descend every
branch with their weight scaled by the branch's share of the known
mass, the standard fractional treatment. Growth stops on pure nodes,
when no split has positive gain, or when the weighted instance count
drops below 2 * min_leaf. With cf < 1, pessimistic error pruning then
collapses any subtree whose error estimate as a single leaf does not
exceed the sum over its leaves, using the upper confidence bound of the
binomial error at confidence cf; cf = 1 disables pruning.

Prediction routes by value token, so models survive re-interned or
re-filtered schemas; a MISSING or unseen value fans out across all
branches weighted by the training proportions and the resulting class
distributions are mixed. Ties in the final argmax go to the earliest
label.

train_rules runs sequential covering: classes from rarest to most
frequent, each growing conjunctive rules condition by condition to
maximize FOIL information gain on a grow split, pruning final condition
sequences to maximize (p - n) / (p + n) on a prune split, and stopping
a class once a candidate rule's prune-split accuracy no longer beats
always predicting that class. Uncovered instances end in a default rule
predicting their majority. Rule syntax:

    (input16 = '(90-inf)') and (input11 = '(-inf-10]') => class=8

Inside train_rules every row set (grow split, prune split, rule
coverage, remaining rows, class rows) is a Python int used as a bitset,
bit i standing for row i. One bitset per observed (feature, value) and
one per label are built once per call, so the coverage of a condition
list is an AND of them. All counting goes through one helper, mass: with
unit weights it is int.bit_count; otherwise it adds the weights of the
set bits in ascending row order, the order a loop over the rows adds
in, so every float sum, and with it every rule choice and distribution,
is bit-identical to the row-at-a-time algorithm. The grow/prune flag of
the k-th row of a class is computed once per call and written into the
class's set bits for each split.

A model's size counts every node of a tree (internal plus leaves) and
every rule of a rule list including the default.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, count
from statistics import NormalDist

from .data import MISSING, Dataset, Feature
from .errors import ConfigError, DataError
from .metrics import entropy_bits

TREE_MIN_LEAF = 2
TREE_CF = 0.25
RULES_PRUNE_FRACTION = 1.0 / 3.0
LEARNERS = ("tree", "rules")


def _normalized(counts) -> tuple[float, ...]:
    """Class distribution of counts; uniform when they sum to 0."""
    total = sum(counts)
    if total <= 0:
        return (1.0 / len(counts),) * len(counts)
    return tuple(c / total for c in counts)


def _argmax_low(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


@dataclass
class Leaf:
    counts: tuple[float, ...]
    label: int

    @property
    def size(self) -> int:
        return 1

    @property
    def n_leaves(self) -> int:
        return 1


@dataclass
class Split:
    feature: int
    name: str
    children: dict[str, "Leaf | Split"]
    branch_weights: dict[str, float]
    counts: tuple[float, ...]
    label: int

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children.values())

    @property
    def n_leaves(self) -> int:
        return sum(c.n_leaves for c in self.children.values())


@dataclass(frozen=True)
class TreeModel:
    root: Leaf | Split
    labels: tuple[str, ...]
    features: tuple[Feature, ...]

    @cached_property
    def size(self) -> int:
        """Node count: internal nodes plus leaves."""
        return self.root.size

    @cached_property
    def n_leaves(self) -> int:
        """Root-to-leaf path count, the auxiliary size measure."""
        return self.root.n_leaves

    def predict(self, inst, schema: Dataset | None = None):
        """Label token and class distribution for one instance.

        schema is the dataset the instance belongs to; None means the
        training schema. Values routed by token, so instances from filtered
        or re-interned datasets predict correctly; MISSING and unseen values
        mix all branches by training proportion.
        """
        dist = _node_distribution(self.root, _tokens(self, inst, schema), len(self.labels))
        return self.labels[_argmax_low(dist)], tuple(dist)

    def split_features(self) -> set[str]:
        out: set[str] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Split):
                out.add(node.name)
                stack.extend(node.children.values())
        return out

    def to_text(self) -> str:
        lines: list[str] = []

        def leaf_text(leaf: Leaf) -> str:
            return f"{self.labels[leaf.label]} ({format(sum(leaf.counts), 'g')})"

        def walk(node, depth):
            prefix = "|  " * depth
            if isinstance(node, Leaf):
                lines.append(f"{prefix}{leaf_text(node)}")
                return
            for tok, child in node.children.items():
                if isinstance(child, Leaf):
                    lines.append(f"{prefix}{node.name} = {tok}: {leaf_text(child)}")
                else:
                    lines.append(f"{prefix}{node.name} = {tok}")
                    walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines) + "\n"


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


def train_tree(d: Dataset, min_leaf: int = TREE_MIN_LEAF, cf: float = TREE_CF) -> TreeModel:
    """Grow and (for cf < 1) pessimistically prune a tree on d."""
    if min_leaf < 1:
        raise ConfigError(f"min_leaf must be >= 1, got {min_leaf}")
    if not 0.0 < cf <= 1.0:
        raise ConfigError(f"cf must lie in (0, 1], got {cf}")
    if not d.instances:
        raise DataError("cannot train a tree on an empty dataset")

    n_labels = len(d.labels)
    cols = [d.column(x) for x in range(len(d.features))]
    ys = [inst.label for inst in d.instances]
    ws = [inst.weight for inst in d.instances]

    def grow(items, avail):
        counts = [0.0] * n_labels
        for i, w in items:
            counts[ys[i]] += w
        total = sum(counts)
        label = _argmax_low(counts)
        if (
            total < 2 * min_leaf
            or sum(1 for c in counts if c > 0) <= 1
            or not avail
        ):
            return Leaf(tuple(counts), label)

        best = None  # (ratio, x, val_counts, known_w)
        for x in sorted(avail):
            col = cols[x]
            val_counts: dict[int, list[float]] = {}
            known_w = 0.0
            for i, w in items:
                z = col[i]
                if z == MISSING:
                    continue
                per = val_counts.setdefault(z, [0.0] * n_labels)
                per[ys[i]] += w
                known_w += w
            if known_w <= 0 or len(val_counts) < 2:
                continue
            known_counts = [0.0] * n_labels
            info = 0.0
            split_info = 0.0
            for per in val_counts.values():
                vw = sum(per)
                for l in range(n_labels):
                    known_counts[l] += per[l]
                info += (vw / known_w) * entropy_bits(per)
                q = vw / total
                if q > 0:
                    split_info -= q * math.log2(q)
            miss_w = total - known_w
            if miss_w > 0:
                q = miss_w / total
                split_info -= q * math.log2(q)
            gain = (known_w / total) * (entropy_bits(known_counts) - info)
            if gain <= 1e-12 or split_info <= 0:
                continue
            ratio = gain / split_info
            if best is None or ratio > best[0] + 1e-12:
                best = (ratio, x, val_counts, known_w)
        if best is None:
            return Leaf(tuple(counts), label)

        _, x, val_counts, known_w = best
        col = cols[x]
        buckets: dict[int, list] = {z: [] for z in sorted(val_counts)}
        missing_items = []
        for i, w in items:
            z = col[i]
            if z == MISSING:
                missing_items.append((i, w))
            else:
                buckets[z].append((i, w))
        children: dict[str, Leaf | Split] = {}
        branch_weights: dict[str, float] = {}
        sub_avail = avail - {x}
        for z, child_items in buckets.items():
            share = sum(val_counts[z]) / known_w
            if missing_items:
                child_items = child_items + [
                    (i, w * share) for i, w in missing_items if w * share > 1e-12
                ]
            tok = d.features[x].values[z]
            children[tok] = grow(child_items, sub_avail)
            branch_weights[tok] = share
        return Split(x, d.features[x].name, children, branch_weights, tuple(counts), label)

    items = [(i, w) for i, w in enumerate(ws)]
    root = grow(items, set(range(len(d.features))))
    if cf < 1.0:
        root = _prune(root, cf)
    return TreeModel(root, d.labels, d.features)


def _added_errors(n: float, e: float, cf: float) -> float:
    """Upper-confidence-bound extra errors for e observed errors in n cases."""
    if cf >= 0.5:
        return 0.0
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (_added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - cf)
    f = (e + 0.5) / n
    r = (
        f
        + z * z / (2 * n)
        + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
    ) / (1.0 + z * z / n)
    return r * n - e


def _leaf_errors(node, cf) -> float:
    """Pessimistic error estimate of node collapsed to a leaf."""
    total = sum(node.counts)
    errors = total - node.counts[node.label]
    return errors + _added_errors(total, errors, cf)


def _estimated_errors(node, cf) -> float:
    if isinstance(node, Leaf):
        return _leaf_errors(node, cf)
    return sum(_estimated_errors(c, cf) for c in node.children.values())


def _prune(node, cf):
    if isinstance(node, Leaf):
        return node
    node.children = {t: _prune(c, cf) for t, c in node.children.items()}
    if _leaf_errors(node, cf) <= _estimated_errors(node, cf) + 1e-9:
        return Leaf(node.counts, node.label)
    return node


# ---------------------------------------------------------------------------
# Sequential-covering rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """Conjunction of (feature name, value token) tests; empty = default."""

    conditions: tuple[tuple[str, str], ...]
    label: int
    distribution: tuple[float, ...]

    def text(self, labels) -> str:
        body = " and ".join(f"({f} = '{v}')" for f, v in self.conditions)
        head = f"=> class={labels[self.label]}"
        return f"{body} {head}" if body else head


@dataclass(frozen=True)
class RuleModel:
    rules: tuple[Rule, ...]
    labels: tuple[str, ...]
    features: tuple[Feature, ...]

    @property
    def size(self) -> int:
        """Rule count, the default rule included."""
        return len(self.rules)

    def predict(self, inst, schema: Dataset | None = None):
        """First matching rule wins; the default rule matches everything."""
        tokens = _tokens(self, inst, schema)
        for rule in self.rules:
            if all(tokens.get(f) == v for f, v in rule.conditions):
                return self.labels[rule.label], rule.distribution
        return self.labels[self.rules[-1].label], self.rules[-1].distribution

    def rule_features(self) -> set[str]:
        return {f for rule in self.rules for f, _ in rule.conditions}

    def to_text(self) -> str:
        return "\n".join(r.text(self.labels) for r in self.rules) + "\n"


def _gaps(mask: int) -> list[str]:
    """The run of zero digits below each set bit of mask, lowest bit first."""
    gaps = bin(mask)[:1:-1].split("1")
    gaps.pop()  # nothing lies above the highest set bit
    return gaps


def _row_masks(keys) -> dict[int, int]:
    """One bitset per distinct key: bit i is set where keys[i] equals it."""
    n = len(keys)
    digits: dict[int, bytearray] = {}
    for i, k in enumerate(keys):
        row = digits.get(k)
        if row is None:
            row = digits[k] = bytearray(b"0" * n)
        row[n - 1 - i] = 49  # ord("1"); int() reads the highest bit first
    return {k: int(row, 2) for k, row in sorted(digits.items())}


def _prune_ranks(n: int, prune_fraction: float) -> str:
    """Prune-side flag ("1") or grow-side flag ("0") for each rank in a class.

    Within each class, every prune_fraction-th instance goes to the prune
    side, so both sides keep the class mix without any randomness. The
    running share of a row depends only on how many rows of its class
    came before it, so one string of n flags serves every class and every
    split.
    """
    flags = []
    acc = 0.0
    for _ in range(n):
        acc += prune_fraction
        if acc >= 1.0 - 1e-9:
            acc -= 1.0
            flags.append("1")
        else:
            flags.append("0")
    return "".join(flags)


def _positional_split(rows: int, class_bits, ranks: str) -> tuple[int, int]:
    """Deterministic stratified grow/prune partition of the row set rows.

    The k-th row of a class in rows (ascending) goes to the prune side
    when ranks[k] is "1".
    """
    prune = 0
    for bits in class_bits:
        mask = rows & bits
        if not mask:
            continue
        # Rebuild the mask's binary digits with its k-th set bit replaced
        # by ranks[k].
        prune |= int("".join(map(operator.add, _gaps(mask), ranks))[::-1], 2)
    return rows ^ prune, prune


def train_rules(d: Dataset, prune_fraction: float = RULES_PRUNE_FRACTION) -> RuleModel:
    """Learn an ordered rule list by sequential covering."""
    if not 0.0 <= prune_fraction < 1.0:
        raise ConfigError(f"prune_fraction must lie in [0, 1), got {prune_fraction}")
    if not d.instances:
        raise DataError("cannot learn rules from an empty dataset")

    n_labels = len(d.labels)
    ws = [inst.weight for inst in d.instances]
    by_label = _row_masks([inst.label for inst in d.instances])
    class_bits = [by_label.get(l, 0) for l in range(n_labels)]
    value_bits = []
    for x in range(len(d.features)):
        by_value = _row_masks(d.column(x))
        by_value.pop(MISSING, None)
        value_bits.append(by_value)
    ranks = _prune_ranks(len(ws), prune_fraction)

    if all(w == 1.0 for w in ws):
        mass = int.bit_count
    else:
        def mass(mask):
            # Add the weights in ascending row order, as a loop over the
            # rows would, so the float sum comes out the same. The k-th set
            # bit sits above the first k + 1 runs of zeros and k other ones.
            ones = map(operator.add, accumulate(map(len, _gaps(mask))), count())
            return reduce(operator.add, map(ws.__getitem__, ones), 0.0)

    def coverage(conds, rows):
        for x, z in conds:
            rows &= value_bits[x][z]
        return rows

    def pn(conds, rows, target):
        covered = coverage(conds, rows)
        pos = class_bits[target]
        return mass(covered & pos), mass(covered & ~pos)

    def grow_rule(rows, target):
        conds: list[tuple[int, int]] = []
        pos = rows & class_bits[target]
        neg = rows ^ pos
        p0, n0 = mass(pos), mass(neg)
        if p0 <= 0:
            return None
        used: set[int] = set()
        while n0 > 0:
            best = None
            log_acc0 = math.log2(p0 / (p0 + n0))
            for x, by_value in enumerate(value_bits):
                if x in used:
                    continue
                for z, bits in by_value.items():
                    p1 = mass(pos & bits)
                    if p1 <= 0:
                        continue
                    q1 = mass(neg & bits)
                    gain = p1 * (math.log2(p1 / (p1 + q1)) - log_acc0)
                    if best is None or gain > best[0] + 1e-12:
                        best = (gain, x, z, p1, q1)
            if best is None or best[0] <= 1e-12:
                break
            _, x, z, p0, n0 = best
            conds.append((x, z))
            used.add(x)
            pos &= value_bits[x][z]
            neg &= value_bits[x][z]
        return conds or None

    def prune_rule(conds, prune_rows, target):
        if not prune_rows or len(conds) <= 1:
            return conds
        def worth(cs):
            p, n = pn(cs, prune_rows, target)
            if p + n <= 0:
                return -1.0
            return (p - n) / (p + n)
        best_len, best_v = len(conds), worth(conds)
        for keep in range(len(conds) - 1, 0, -1):
            v = worth(conds[:keep])
            if v > best_v + 1e-12:
                best_len, best_v = keep, v
        return conds[:best_len]

    label_counts = [mass(bits) for bits in class_bits]
    order = sorted(range(n_labels), key=lambda l: (label_counts[l], l))

    remaining = (1 << len(ws)) - 1
    rules: list[Rule] = []
    for target in order[:-1]:
        while remaining & class_bits[target]:
            grow_rows, prune_rows = _positional_split(remaining, class_bits, ranks)
            conds = grow_rule(grow_rows, target)
            if conds is None:
                break
            conds = prune_rule(conds, prune_rows, target)
            check_rows = prune_rows or grow_rows
            p, n = pn(conds, check_rows, target)
            rule_acc = p / (p + n) if p + n > 0 else 0.0
            base = mass(check_rows & class_bits[target])
            total = mass(check_rows)
            default_acc = base / total if total > 0 else 0.0
            if rule_acc <= default_acc:
                break
            covered = coverage(conds, remaining)
            dist = _normalized([mass(covered & bits) for bits in class_bits])
            rules.append(
                Rule(
                    tuple(
                        (d.features[x].name, d.features[x].values[z])
                        for x, z in conds
                    ),
                    target,
                    dist,
                )
            )
            remaining ^= covered

    tail_counts = [mass(remaining & bits) for bits in class_bits]
    if sum(tail_counts) <= 0:
        tail_counts = label_counts
    rules.append(Rule((), _argmax_low(tail_counts), _normalized(tail_counts)))
    return RuleModel(tuple(rules), d.labels, d.features)


# ---------------------------------------------------------------------------
# Shared surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LearnerSpec:
    """Which classifier to train and with what knobs."""

    kind: str = "tree"
    min_leaf: int = TREE_MIN_LEAF
    cf: float = TREE_CF
    prune_fraction: float = RULES_PRUNE_FRACTION

    def __post_init__(self):
        if self.kind not in LEARNERS:
            raise ConfigError(f"unknown learner kind {self.kind!r}")

    def train(self, d: Dataset):
        if self.kind == "tree":
            return train_tree(d, self.min_leaf, self.cf)
        return train_rules(d, self.prune_fraction)
