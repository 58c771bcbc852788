"""Compact classifiers whose size is the quantity under study.

train_tree grows a multiway decision tree: at each node the feature
with the highest gain ratio among those with positive gain is chosen
(ties go to the lowest feature index), with one branch per value
observed there; a row of weight 0 is observed nowhere. Instances
missing the split feature descend every branch with their weight scaled
by the branch's share of the known mass, the standard fractional
treatment. Growth stops on pure nodes, when no split has positive gain,
or when the weighted instance count drops below 2 * min_leaf. With cf < 1, pessimistic error pruning
collapses any subtree whose error estimate as a single leaf does not
exceed the sum over its leaves, using the upper confidence bound of the
binomial error at confidence cf; cf = 1 disables pruning.

Pruning runs inside growth as an exact branch-and-bound. A node returns
its subtree with its estimate: its leaf's, leaf_err, when it collapses,
else its children's estimates added left to right. It collapses when
leaf_err <= that sum + 1e-9, the test a bottom-up pass over the whole
grown tree would make, so the trees are the same. The same test against a
lower bound lo on that sum collapses it early. For cf >= 1e-3 no leaf of n
items estimates below g(n) = n (1 - cf^(1/n)) (0 for cf >= 0.5), the extra
errors of an error-free leaf, and g is concave with g(0) = 0, hence
subadditive, so no subtree on n items does either. A child of n unit-weight
items has lb = g(n) less a relative 1e-9 for rounding and for fan-out
weights below 1e-12 that are dropped; a fractional child, and every child
for cf below 1e-3 (where a leaf with one error can estimate below g(n)),
has lb = 0. Float addition being monotone, each of these bounds the sum:

- before a unit node is scored, the least over the features with no slot
  missing there of g(n - k + 1) + (k - 1) g(1), k being the feature's
  value count there, less a relative 1e-6: by concavity (Karamata) the lbs
  of k unit children of at least one item each add up to no less;
- once a split is chosen, its children's lbs added left to right;
- after child k grows, the grown children's sum + lb_k+1 + lb_k+2 + ...

Counting goes through metrics.class_keys, one key column per feature
built once per fit, and metrics.class_counts, whose first-appearance order
the gain-ratio float sums follow. A feature with fewer than two values in
the schema can never split and gets no column. In an unweighted fit the
items are row ids of weight 1.0 (unit) until a split's feature is missing
at a node: there its items are wrapped once into (row id, 1.0) pairs, and
those missing it fan out to every child. A split where no item fans out
hands its per-value counts down as its children's counts, weighted nodes
included: each adds its items' weights in item order, as the child's own
count would. Every tree is the one an item-by-item count gives.

One loop scores every feature by gain ratio, each entropy in it, split
information included, by metrics.entropy_bits. At a unit node whose items
all hold a value of the feature, the per-value counts are whole numbers
adding up exactly to the node's counts, so the known counts are those,
whose entropy is taken once per node, and the known share is exactly 1.
Fractional weights add up left to right (data.left_sum), so every
interpreter rounds them alike.

A fit leaves no reference cycles behind, so reference counting frees its
key columns and entropy cache the moment it returns; growth runs with the
cyclic collector paused, since its passes would find nothing, and the
collector's previous state is restored however growth ends.

Prediction routes by value token, so models survive re-interned or
re-filtered schemas; a MISSING or unseen value fans out across all
branches weighted by the training proportions and the resulting class
distributions are mixed. Ties in the final argmax go to the earliest
label. Models compile this routing once per schema, and predict_ids
scores a whole list of instances through the compiled form, routing each
distinct slot tuple once: a filtered test fold repeats a few dozen tuples.
A rule list finds the first rule each row matches one way, with a bitset
per (feature, value id), for predict (one row) and predict_ids alike.

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

A model's size counts every node of a tree (internal plus leaves), found
by one walk, _nodes, and every rule of a rule list including the default.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, count, repeat
from statistics import NormalDist
from typing import NamedTuple

from .data import MISSING, Dataset, Feature, Rows, collector_paused, left_sum
from .errors import ConfigError, DataError, check_choice, check_count, check_number
from .metrics import class_counts, class_keys, entropy_bits

TREE_MIN_LEAF = 2
TREE_CF = 0.25
RULES_PRUNE_FRACTION = 1.0 / 3.0
LEARNERS = ("tree", "rules")


def _normalized(counts) -> tuple[float, ...]:
    """Class distribution of counts; uniform when they sum to 0."""
    total = left_sum(counts)
    if total <= 0:
        return (1.0 / len(counts),) * len(counts)
    return tuple(c / total for c in counts)


def _argmax_low(values) -> int:
    """The index of the first largest value."""
    return max(range(len(values)), key=values.__getitem__)


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------


@dataclass
class Leaf:
    counts: tuple[float, ...]
    label: int


@dataclass
class Split:
    feature: int
    name: str
    children: dict[str, "Leaf | Split"]
    branch_weights: dict[str, float]
    counts: tuple[float, ...]
    label: int


def _nodes(root):
    """Every node of the tree under root, each once, root first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Split):
            stack.extend(node.children.values())


def _compiled(model, instances, schema: Dataset | None):
    """instances through Rows.of at schema's slot count, and model's routing for
    schema's features, cached on model by their id next to the tuple itself."""
    features = model.features if schema is None else schema.features
    rows = Rows.of(instances, len(features))
    cache = model.__dict__.setdefault("_by_schema", {})
    if cache.get(id(features), (None,))[0] is not features:
        pos = {f.name: x for x, f in enumerate(features)}
        cache[id(features)] = (features, model._compile(pos, features))
    return rows, cache[id(features)][1]


@dataclass(frozen=True)
class TreeModel:
    root: Leaf | Split
    labels: tuple[str, ...]
    features: tuple[Feature, ...]

    @cached_property
    def size(self) -> int:
        """Node count: internal nodes plus leaves."""
        return sum(1 for _ in _nodes(self.root))

    def predict(self, inst, schema: Dataset | None = None):
        """Label token and class distribution for one instance of schema
        (None: the training schema); see the module docstring for routing."""
        rows, root = _compiled(self, [inst], schema)
        dist = _distribution(root, next(rows.slot_tuples()), len(self.labels))
        return self.labels[_argmax_low(dist)], tuple(dist)

    def predict_ids(self, instances, schema: Dataset | None = None) -> list[int]:
        """Label id, into self.labels, that predict picks for each instance;
        each distinct slot tuple is routed once."""
        (rows, root), n_labels = _compiled(self, instances, schema), len(self.labels)
        memo: dict[tuple[int, ...], int] = {}
        out = []
        for slots in rows.slot_tuples():
            y = memo.get(slots)
            if y is None:
                y = memo[slots] = _argmax_low(_distribution(root, slots, n_labels))
            out.append(y)
        return out

    def _compile(self, pos, features):
        """The tree as _Routes over features, pos[name] a feature's position. Each
        route's table is read a slot at a time, so it keeps its own entry for MISSING."""
        def walk(node):
            if isinstance(node, Leaf):
                return _normalized(node.counts)
            kids = {t: walk(c) for t, c in node.children.items()}
            x = pos.get(node.name)
            table = [] if x is None else [kids.get(t) for t in features[x].values] + [None]
            return _Route(x, table, [(node.branch_weights[t], c) for t, c in kids.items()])

        return walk(self.root)

    def to_text(self) -> str:
        lines: list[str] = []

        def leaf_text(leaf: Leaf) -> str:
            return f"{self.labels[leaf.label]} ({format(left_sum(leaf.counts), 'g')})"

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


class _Route(NamedTuple):
    """A compiled Split (a compiled Leaf is its distribution): table maps value
    ids of schema feature x, then MISSING, to a child or to None, which fans out
    over the (branch weight, child) pairs; it is empty when the schema lacks x."""

    x: int | None
    table: list
    fan: list


def _distribution(node, slots, n_labels):
    while type(node) is _Route:
        child = node.table[slots[node.x]] if node.table else None
        if child is None:
            mixed = [0.0] * n_labels
            for bw, c in node.fan:
                dist = _distribution(c, slots, n_labels)
                for l in range(n_labels):
                    mixed[l] += bw * dist[l]
            return mixed
        node = child
    return node


def train_tree(d: Dataset, min_leaf: int = TREE_MIN_LEAF, cf: float = TREE_CF) -> TreeModel:
    """Grow a tree on d, pruned pessimistically as it grows when cf < 1."""
    LearnerSpec("tree", min_leaf, cf).check()
    if not d.instances:
        raise DataError("cannot train a tree on an empty dataset")

    with collector_paused():  # growth leaves no cycles, so collector passes would find nothing
        root = _grow(d, min_leaf, cf)
    return TreeModel(root, d.labels, d.features)


def _grow(d: Dataset, min_leaf: int, cf: float) -> Leaf | Split:
    """The tree on d, pruned as it grows when cf < 1; see the module docstring."""
    n_labels = len(d.labels)
    rows = d.instances
    ys = rows.label_ids
    # Per feature with two or more values, its class_keys; None for the others.
    keys: list[list[int] | None] = [
        class_keys(len(f.values), column, ys, n_labels) if len(f.values) >= 2 else None
        for f, column in zip(d.features, rows.columns)
    ]

    entropy = lru_cache(maxsize=None)(entropy_bits)  # once per class-weight tuple in this fit
    prune = cf < 1.0
    if prune:
        quantile = NormalDist().inv_cdf(1.0 - cf)
        least = lru_cache(maxsize=None)(lambda n: _least_errors(n, cf, quantile))
        # (k - 1) g(1) for the most values any feature has: no pre-scoring lo exceeds
        # g(n) plus this, so a node whose collapse needs more skips that check
        widest = (max((len(f.values) for f in d.features), default=1) - 1) * least(1.0)

    def grow(items, unit, counts, avail):
        # items are row ids of weight 1.0 when unit and (row id, weight) pairs
        # otherwise; counts are their class weights, or None to count them.
        # Returns the subtree and its error estimate (0.0 when cf = 1).
        if counts is None:
            counts = [0.0] * n_labels
            for i, w in zip(items, repeat(1.0)) if unit else items:
                counts[ys[i]] += w
        add_up = sum if unit else left_sum  # unit weights are whole: exact in any order
        total = add_up(counts)
        label = _argmax_low(counts)
        leaf_err = 0.0
        if prune:
            errors = total - counts[label]
            leaf_err = errors + _added_errors(total, errors, cf, quantile)
        if (
            total < 2 * min_leaf
            or sum(1 for c in counts if c > 0) <= 1
            or not avail
        ):
            return Leaf(tuple(counts), label), leaf_err
        if prune and unit and leaf_err - 1e-9 <= least(total) + widest:
            # Collapse before scoring, with the bound on any split's lo that the
            # module docstring derives; a missing slot here leaves no such bound.
            lo = math.inf
            for x in avail:
                present = set(map(rows.columns[x].__getitem__, items))
                if MISSING in present:
                    break
                k = len(present)
                if k >= 2:
                    lo = min(lo, least(total - k + 1) + (k - 1) * least(1.0))
            else:
                if _collapses(leaf_err, lo * (1.0 - 1e-6)):
                    return Leaf(tuple(counts), label), leaf_err

        h_node = entropy(tuple(counts)) if unit else None
        best = None  # (ratio, x, val_counts, known_w, whole)
        for x in sorted(avail):
            val_counts, known_w = class_counts(keys[x], items, unit, n_labels)
            if known_w <= 0 or len(val_counts) < 2:
                continue
            info, shares = 0.0, []
            for per in val_counts.values():
                vw = add_up(per)
                info += (vw / known_w) * entropy(tuple(per))
                shares.append(vw)
            shares.append(total - known_w)  # the missing share
            split_info = entropy_bits(shares, total)
            whole = unit and known_w == total  # no slot is missing: the known counts are counts
            h_known = h_node if whole else entropy(tuple(map(left_sum, zip(*val_counts.values()))))
            gain = (known_w / total) * (h_known - info)
            if gain <= 1e-12 or split_info <= 0:
                continue
            ratio = gain / split_info
            if best is None or ratio > best[0] + 1e-12:
                best = (ratio, x, val_counts, known_w, whole)
        if best is None:
            return Leaf(tuple(counts), label), leaf_err

        _, x, val_counts, known_w, whole = best  # whole: the children are unit too
        zs = sorted(val_counts)
        sizes = [add_up(val_counts[z]) for z in zs]
        # lo = done + lbs[k] + lbs[k + 1] + ..., added left to right, bounds the sum of
        # the children's estimates from below while children k, k + 1, ... are not grown.
        lbs = [least(n) for n in sizes] if prune and whole else [0.0] * len(zs)
        if prune and _collapses(leaf_err, left_sum(lbs)):
            return Leaf(tuple(counts), label), leaf_err

        ks = map(keys[x].__getitem__, items if unit else map(operator.itemgetter(0), items))
        if unit and not whole:  # items missing x fan out: each is bucketed as (row id, 1.0)
            unit, items = False, zip(items, repeat(1.0))
        buckets: dict[int, list] = {z: [] for z in zs}
        missing_items = []
        for item, k in zip(items, ks):
            if k == MISSING:
                missing_items.append(item)
            else:
                buckets[k // n_labels].append(item)
        children: dict[str, Leaf | Split] = {}
        branch_weights: dict[str, float] = {}
        sub_avail = avail - {x}
        done = 0.0  # the grown children's estimates, added left to right
        for k, z in enumerate(zs):
            share = sizes[k] / known_w
            child_items, child_counts = buckets[z], val_counts[z]
            if missing_items:  # fan-out copies join the bucket: the child counts them
                child_counts = None
                child_items = child_items + [
                    (i, w * share) for i, w in missing_items if w * share > 1e-12
                ]
            child, est = grow(child_items, unit, child_counts, sub_avail)
            done += est
            rest = lbs[k + 1 :]
            if prune and rest and _collapses(leaf_err, left_sum(rest, done)):
                return Leaf(tuple(counts), label), leaf_err
            tok = d.features[x].values[z]
            children[tok] = child
            branch_weights[tok] = share
        if prune and _collapses(leaf_err, done):
            return Leaf(tuple(counts), label), leaf_err
        return Split(x, d.features[x].name, children, branch_weights, tuple(counts), label), done

    unit = rows.unit
    # a row of weight 0 (or -0.0) adds nothing to any count, so it is left
    # out rather than let it give an empty branch to a value only it holds
    items = range(len(ys)) if unit else [(i, w) for i, w in enumerate(rows.weights) if w > 0.0]
    try:
        avail = {x for x, key in enumerate(keys) if key is not None}
        return grow(items, unit, None, avail)[0]
    finally:
        del grow  # grow's closure holds grow; emptying the cell frees the fit's columns now


def _added_errors(n: float, e: float, cf: float, z: float) -> float:
    """Upper-confidence-bound extra errors for e observed errors in n cases;
    z is the normal quantile NormalDist().inv_cdf(1 - cf)."""
    if cf >= 0.5 or n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (_added_errors(n, 1.0, cf, z) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    f = (e + 0.5) / n
    r = (
        f
        + z * z / (2 * n)
        + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))
    ) / (1.0 + z * z / n)
    return r * n - e


def _least_errors(n: float, cf: float, z: float) -> float:
    """A lower bound on the estimate of any subtree grown on n unit-weight
    items: g(n) = _added_errors(n, 0, cf, z), less a relative 1e-9 for the
    rounding of sums and of fan-out weights, and 0 for cf below 1e-3. No
    leaf of n items estimates below g(n) for cf >= 1.14e-4, but below that
    the normal approximation for one error can (n = 2, cf = 1e-5: 1.987
    against g(2) = 1.994)."""
    if cf < 1e-3:
        return 0.0
    return _added_errors(n, 0.0, cf, z) * (1.0 - 1e-9)


def _collapses(leaf_err, lo):
    """Whether pruning must collapse a node into its leaf, estimated at
    leaf_err, once lo bounds the left-to-right sum of its children's
    estimates from below."""
    return leaf_err <= lo + 1e-9


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
        rule = self._first_rules([inst], schema)[0]
        return self.labels[rule.label], rule.distribution

    def predict_ids(self, instances, schema: Dataset | None = None) -> list[int]:
        """predict's label ids (into self.labels), one per instance."""
        return [rule.label for rule in self._first_rules(instances, schema)]

    def _first_rules(self, instances, schema: Dataset | None) -> list[Rule]:
        """The first rule each instance matches: with one bitset per (feature,
        value id), each rule takes the rows no earlier rule took."""
        rows, compiled = _compiled(self, instances, schema)
        if not rows:
            return []
        used = {x for conds, _ in compiled for x, _ in conds}
        masks = {x: _row_masks(rows.columns[x]) for x in used}
        out = [self.rules[-1]] * len(rows)
        remaining = (1 << len(rows)) - 1
        for conds, rule in compiled:
            covered = remaining
            for x, z in conds:
                covered &= masks[x].get(z, 0)
            for i in _bits(covered):
                out[i] = rule
            remaining ^= covered
        return out

    def _compile(self, pos, features):
        ids = [{t: z for z, t in enumerate(f.values)} for f in features]
        compiled = []
        for rule in self.rules:
            try:
                conds = [(pos[f], ids[pos[f]][v]) for f, v in rule.conditions]
            except KeyError:  # a feature or token the schema lacks never matches
                continue
            compiled.append((conds, rule))
        return compiled

    def to_text(self) -> str:
        return "\n".join(r.text(self.labels) for r in self.rules) + "\n"


def _bits(mask: int):
    """Set-bit indices of mask, ascending: the k-th lies above k + 1 zero runs and k ones."""
    gaps = bin(mask)[:1:-1].split("1")  # the run of zeros below each set bit, lowest first
    gaps.pop()  # nothing lies above the highest set bit
    return map(operator.add, accumulate(map(len, gaps)), count())


def _row_masks(keys) -> dict[int, int]:
    """One bitset per distinct key, in key order: bit i is set where keys[i]
    equals it. Each is read from digits spanning its own rows alone."""
    rows = defaultdict(list)
    for i, k in enumerate(keys):
        rows[k].append(i)
    masks = {}
    for k, at in sorted(rows.items()):  # keys are distinct, so no list is compared
        lo, top = at[0], at[-1]
        digits = bytearray(b"0" * (top - lo + 1))
        for i in at:
            digits[top - i] = 49  # ord("1"); int() reads the highest bit first
        masks[k] = int(digits, 2) << lo
    return masks


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
        # Rebuild the mask's binary digits, highest first, with its k-th
        # set bit (counted from the lowest) replaced by ranks[k]: the zero
        # runs between its ones interleave with ranks[k - 1], ..., ranks[0].
        runs = bin(mask)[2:].split("1")
        k = len(runs) - 1
        digits = [""] * (2 * k + 1)
        digits[0::2] = runs
        digits[1::2] = ranks[k - 1::-1]
        prune |= int("".join(digits), 2)
    return rows ^ prune, prune


def train_rules(d: Dataset, prune_fraction: float = RULES_PRUNE_FRACTION) -> RuleModel:
    """Learn an ordered rule list by sequential covering."""
    LearnerSpec("rules", prune_fraction=prune_fraction).check()
    if not d.instances:
        raise DataError("cannot learn rules from an empty dataset")

    n_labels = len(d.labels)
    ws = d.instances.weights
    by_label = _row_masks(d.instances.label_ids)
    class_bits = [by_label.get(l, 0) for l in range(n_labels)]
    value_bits = []
    for x in range(len(d.features)):
        by_value = _row_masks(d.column(x))
        by_value.pop(MISSING, None)
        value_bits.append(by_value)
    ranks = _prune_ranks(len(ws), prune_fraction)

    if d.instances.unit:
        mass = int.bit_count
    else:
        def mass(mask):
            # Add the weights in ascending row order, as a loop over the
            # rows would, so the float sum comes out the same.
            return left_sum(map(ws.__getitem__, _bits(mask)))

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
        # a precision that underflows to 0 counts as no positive mass
        if p0 <= 0 or p0 / (p0 + n0) <= 0:
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
                    acc1 = p1 / (p1 + q1)
                    if acc1 <= 0:  # underflowed: as if p1 were 0
                        continue
                    gain = p1 * (math.log2(acc1) - log_acc0)
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
        check_choice("learner kind", self.kind, LEARNERS)

    def check(self) -> None:
        """Raise ConfigError for a bad knob of this kind of learner, as training does."""
        if self.kind == "rules":
            check_number("prune_fraction", self.prune_fraction, 0, 1, "[)")
            return
        check_count("min_leaf", self.min_leaf, 1)
        check_number("cf", self.cf, 0, 1, "(]")
        if 1.0 - self.cf == 1.0:
            raise ConfigError(
                f"cf {self.cf} is too small: 1 - cf rounds to 1, which has no normal quantile")

    def train(self, d: Dataset):
        if self.kind == "tree":
            return train_tree(d, self.min_leaf, self.cf)
        return train_rules(d, self.prune_fraction)
