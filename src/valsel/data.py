"""Dataset container and file round-tripping.

A Dataset holds categorical instances over a fixed feature list. Every
value is interned per feature as a small integer identifier (its index
into the feature's value tuple) so that removal masks and counting stay
cheap array work; MISSING is a reserved sentinel distinct from any
identifier. A value-id column is looked up through a table by one rule,
recode, a MISSING slot reading a value put after the table's last entry;
only metrics.class_keys and the tree's routing, which read a slot at a
time, keep tables of their own. Datasets are immutable after
construction: filters and discretizers return new Dataset objects.

Storage is columnar: Dataset.instances is a Rows, which keeps one tuple
of value ids per feature, one of label ids and one of weights. Rows
builds an Instance for each row only when indexed or iterated and never
keeps it, so len() costs nothing and a dataset holds no per-row object.
Layers read the columns (Dataset.column, Rows.columns, Rows.slot_tuples);
folds and row filters gather them by row position (Dataset.take), and a
column no step changes is shared, not copied, by the dataset derived from
it.

Rows are validated where they come in (the Dataset constructor and
with_instances, and dataset_from_rows for what interning does not
guarantee), with one C-level pass per column; only a failing check walks
the rows to raise the first fault. Datasets derived from valid ones are
not re-validated: take gathers rows, and Dataset._derived, which
discretize.apply and the filters call, puts new slot columns over the
same label ids and weights.

dataset_from_rows, load_csv and load_arff all hand their token rows to
one builder (_build), which interns each feature column, and the labels
as one more, by one rule: a lookup table per column (_table), seeded with
the missing token and the declared values that name themselves, gives a
token it lacks the next id, and only the tokens it lacked are then named
(_named), once each. One row-major C-level pass fills the tables where
every feature domain is declared, and a pass per column otherwise, as
each is the faster there (see _build). Only a token that names no
declared value, a bad row length, label or weight makes the builder
search for the fault, and it raises the error of the first faulty row,
as a row-at-a-time reader would. The file readers make a list per line
and no reference cycle, so they run with the cyclic collector paused
(collector_paused).

Readers: RFC-4180 CSV with a configurable missing token, and the ARFF
subset covering @relation, nominal and numeric @attribute declarations,
and dense @data rows with '?' for missing. String, date, relational and
sparse ARFF constructs are rejected with UnsupportedFeatureError. The
last attribute is the class by convention. ARFF keywords are whole
words ("@database" is not "@data"). Input must be UTF-8: a file that is
not raises DataError naming it.

Writers are byte-stable: the same Dataset always serializes to the same
bytes. ARFF output is lossless (declared value order, unobserved values,
instance weights, feature kinds survive a round trip). CSV output cannot
carry declared-but-unobserved values, value order other than first
appearance, feature kinds, or instance weights; datasets that came from
CSV round-trip exactly.

Both writers quote each distinct token once, into a table per column,
and join the rows recode gives. CSV quoting is csv.writer's with "\n"
line ends: a token holding ',', '"' or '\n' is wrapped in '"', each '"'
doubled; every field is, when any token or name holds '\r', so the file
reads back unchanged; a row of one empty field is '""'; NUL is kept.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import inspect
import logging
import math
from array import array
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, count, cycle, islice, repeat
from operator import add, attrgetter, itemgetter, le
from pathlib import Path

from .errors import (ConfigError, DataError, UnsupportedFeatureError, check_choice,
                     check_count, check_flag)

log = logging.getLogger(__name__)

#: Reserved slot sentinel for an absent value. Never a valid identifier.
MISSING = -1

CATEGORICAL = "categorical"
DISCRETIZED = "discretized-numeric"

_KINDS = (CATEGORICAL, DISCRETIZED)


@dataclass(frozen=True)
class Feature:
    """One column: a name plus the ordered tuple of distinct value tokens."""

    name: str
    values: tuple[str, ...]
    kind: str = CATEGORICAL

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.kind not in _KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if len(set(self.values)) != len(self.values):
            raise DataError(f"feature {self.name!r} declares duplicate values")

    @cached_property
    def floats(self) -> tuple[float | None, ...]:
        """float() of each value token by value id, None where it is not a number."""
        try:
            return tuple(map(float, self.values))
        except ValueError:
            return tuple(map(_float_or_none, self.values))


def _float_or_none(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


@dataclass(frozen=True)
class Instance:
    """One row: per-feature value identifiers (or MISSING), a label id, a weight."""

    slots: tuple[int, ...]
    label: int
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))


class Rows(Sequence):
    """A dataset's rows, stored as columns.

    columns holds one tuple of value ids (or MISSING) per feature, and
    label_ids and weights one entry per row. len() is the row count;
    indexing and iteration build Instance objects on access and never keep
    them. Rows compare equal to a tuple of equal Instances, and slicing
    gives such a tuple.
    """

    __slots__ = ("columns", "label_ids", "weights")

    def __init__(self, columns, label_ids, weights):
        self.columns = tuple(map(tuple, columns))  # tuple() of a tuple is that tuple
        self.label_ids = tuple(label_ids)
        self.weights = tuple(weights)

    @classmethod
    def of(cls, instances) -> "Rows":
        """instances as Rows: Rows as they are, Instance objects that all
        hold as many slots gathered into columns."""
        if isinstance(instances, Rows):
            return instances
        instances = tuple(instances)
        columns = zip(*map(attrgetter("slots"), instances))
        return cls(columns, tuple(map(attrgetter("label"), instances)),
                   tuple(map(attrgetter("weight"), instances)))

    def __len__(self) -> int:
        return len(self.label_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return Instance(tuple(col[i] for col in self.columns), self.label_ids[i], self.weights[i])

    def __iter__(self):
        return map(Instance, self.slot_tuples(), self.label_ids, self.weights)

    def __eq__(self, other):
        if isinstance(other, Rows):
            return len(self) == len(other) and (
                not self or (self.columns, self.label_ids, self.weights)
                == (other.columns, other.label_ids, other.weights))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Rows: {len(self)} rows of {len(self.columns)} slots>"

    def slot_tuples(self):
        """Each row's slot tuple, in row order."""
        return zip(*self.columns) if self.columns else repeat((), len(self))

    def take(self, index) -> "Rows":
        """The rows at the positions in the sequence index, in its order,
        each column gathered in one C-level pass."""
        if len(index) > 1:
            pick = itemgetter(*index)
        else:  # itemgetter needs a position, and of one it gives the item, not a 1-tuple
            def pick(column):
                return tuple(map(column.__getitem__, index))
        return Rows(map(pick, self.columns), pick(self.label_ids), pick(self.weights))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Categorical rows over a fixed feature list, stored as columns.

    instances may be given as Rows (another dataset's, say) or as any
    iterable of Instance objects; it is stored, and read back, as Rows.
    """

    features: tuple[Feature, ...]
    instances: Rows
    labels: tuple[str, ...]
    name: str = "dataset"

    def __post_init__(self):
        features = tuple(self.features)
        rows = self.instances
        if not isinstance(rows, Rows):
            rows = tuple(rows)
            if any(len(i.slots) != len(features) for i in rows):
                _check_rows(features, self.labels, rows)  # raises at the first faulty row
        rows = Rows.of(rows)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "instances", _shaped(rows, len(features)))
        object.__setattr__(self, "labels", tuple(self.labels))
        self._validate()

    @classmethod
    def _trusted(cls, features, rows: Rows, labels, name: str) -> "Dataset":
        """A Dataset built without _validate, for Rows already known valid."""
        features = tuple(features)
        d = object.__new__(cls)
        d.__dict__.update(features=features, instances=_shaped(rows, len(features)),
                          labels=tuple(labels), name=name)
        return d

    def _derived(self, columns, features=None, drop=()) -> "Dataset":
        """This dataset's label ids, weights, labels and name over new slot
        columns, valid for features (default this schema's), less the rows
        at the positions in drop."""
        rows = Rows(columns, self.instances.label_ids, self.instances.weights)
        if drop:
            gone = set(drop)
            rows = rows.take([i for i in range(len(rows)) if i not in gone])
        return Dataset._trusted(self.features if features is None else features, rows,
                                self.labels, self.name)

    def _validate(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate labels")
        rows = self.instances
        if not rows:
            return
        if not self.labels:
            raise DataError("dataset with instances must declare at least one label")
        # One C-level pass per column; only a failing check walks the rows.
        if not (
            len(rows.columns) == len(self.features)
            and all(MISSING <= min(col) and max(col) < len(f.values)
                    for f, col in zip(self.features, rows.columns))
            and 0 <= min(rows.label_ids) and max(rows.label_ids) < len(self.labels)
            and _weight_fault(rows.weights) is None
        ):
            _check_rows(self.features, self.labels, rows)

    # Equality covers content identity: feature names, value tuples and
    # their order, slot values and missing pattern, weights, and the label
    # list with its order. The dataset name and feature kinds are metadata
    # and excluded, so a lossy-but-faithful CSV round trip still compares
    # equal.
    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            [(f.name, f.values) for f in self.features]
            == [(f.name, f.values) for f in other.features]
            and self.labels == other.labels
            and self.instances == other.instances
        )

    def __hash__(self):
        return hash(self.fingerprint)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash used to detect stale metric tables.

        Datasets equal under == hash alike: the header (feature names and
        value tuples, labels, row count) goes in as its repr, then each
        slot column, the label ids and the weights as flat arrays, each
        weight as a double with -0.0 read as 0.0.
        """
        rows = self.instances
        features = tuple((f.name, f.values) for f in self.features)
        h = hashlib.sha1(repr((features, self.labels, len(rows))).encode())
        for column in (*rows.columns, rows.label_ids):
            h.update(array("q", column))
        h.update(array("d", map(add, rows.weights, repeat(0.0))))  # -0.0 + 0.0 is 0.0
        return h.hexdigest()[:16]

    def column(self, x: int) -> tuple[int, ...]:
        """Value ids (or MISSING) of feature x, one per row."""
        return self.instances.columns[x]

    def take(self, index) -> "Dataset":
        """The rows at the given positions, in that order, over this schema."""
        return Dataset._trusted(self.features, self.instances.take(index), self.labels, self.name)

    def with_instances(self, instances) -> "Dataset":
        """New dataset over this schema (features and labels), validated."""
        return Dataset(self.features, instances, self.labels, self.name)


def _shaped(rows: Rows, arity: int) -> Rows:
    """rows, or with no row, arity empty columns: a dataset of no rows has
    a column per feature whatever rows it was given."""
    return rows if rows or len(rows.columns) == arity else Rows(((),) * arity, (), ())


def empty_rows(columns) -> list[int]:
    """Positions of the rows whose every slot in columns is MISSING, the
    rows a value filter deletes; none when there are no columns."""
    blank = (MISSING,) * len(columns)
    return [i for i, slots in enumerate(zip(*columns)) if slots == blank]


def recode(column, table, missing=MISSING) -> tuple:
    """table[z] for each value id z of column, and missing for each MISSING slot."""
    return tuple(map([*table, missing].__getitem__, column))  # a list's is the faster lookup


def _check_rows(features, labels, instances) -> None:
    """Raise DataError for the first faulty row (its slot count, each slot
    in feature order, its label, its weight), then for an overflowing sum."""
    arity = len(features)
    bad_weight, error = _weight_fault([inst.weight for inst in instances]) or (None, None)
    for i, inst in enumerate(instances):
        if len(inst.slots) != arity:
            raise DataError(f"instance {i} has {len(inst.slots)} slots, expected {arity}")
        for x, z in enumerate(inst.slots):
            if z != MISSING and not 0 <= z < len(features[x].values):
                raise DataError(
                    f"instance {i} references unknown value id {z} "
                    f"of feature {features[x].name!r}"
                )
        if not 0 <= inst.label < len(labels):
            raise DataError(f"instance {i} references unknown label id {inst.label}")
        if i == bad_weight:
            raise error
    if error:
        raise error


def _weight_fault(weights) -> tuple[int, DataError] | None:
    """(row, error) of the first weight that is not a number (an int or a
    float, not a bool) or is negative, NaN or infinite (an int past the float
    range included), else (len(weights), error) when their sum, added left to
    right, is not finite; None, after three C-level passes, when they are valid."""
    if set(map(type, weights)) <= {int, float}:
        with suppress(OverflowError):  # an int past the float range is found below
            if all(map(le, repeat(0.0), weights)) and math.isfinite(reduce(add, weights, 0.0)):
                return None
    for i, w in enumerate(weights):
        if type(w) not in (int, float):
            return i, DataError(f"instance {i} has weight {w!r}, which is not a number")
        with suppress(OverflowError):
            if 0.0 <= w and math.isfinite(w):
                continue
        kind = "infinite" if w > 0.0 else "negative or NaN"
        return i, DataError(f"instance {i} has {kind} weight")
    return len(weights), DataError("instance weights add up to more than the largest float")


@contextmanager
def collector_paused():
    """Pause the cyclic collector while building objects that form no
    reference cycles, so no collector pass walks them as they are made."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _same(token):
    return token


def _table(domain, missing, name_of) -> defaultdict:
    """A token column's lookup table, seeded with the missing token (to MISSING)
    and each value of domain (None if undeclared) that names itself (to its
    id); a token it lacks is added on lookup, under the next id, for _named."""
    seeds = () if domain is None else domain
    table = defaultdict(count(len(seeds)).__next__,
                        {v: i for i, v in enumerate(seeds) if name_of(v) == v})
    table[missing] = MISSING
    return table


def _named(ids, table, seeded, domain, name_of):
    """ids, looked up in the _table of domain, with each token the lookups
    added to it (its keys after the first seeded) named once; returns
    (ids, value names, None), or (ids, None, (row, name)) for the first row
    whose token names no declared value.

    name_of(token) is the value a token names, None for missing. Declared,
    an added token takes the id of the value it names; undeclared, added
    tokens are numbered by first appearance, and tokens that name one value
    merge, so the ids stay as they are when every added token names itself.
    """
    base = 0 if domain is None else len(domain)
    added = list(islice(table, seeded, None))
    names = added if name_of is _same else list(map(name_of, added))
    if not added or domain is None and names == added:  # nothing to name
        return ids, tuple(added if domain is None else domain), None
    if domain is None:
        domain = [v for v in dict.fromkeys(names) if v is not None]
    index = dict(zip(domain, count()))
    remap = [MISSING if v is None else index.get(v) for v in names]
    if None in remap:
        k = remap.index(None)
        return ids, None, (ids.index(base + k), names[k])
    return recode(ids, (*range(base), *remap)), tuple(domain), None


def _build(name, feature_names, rows, labels, domains, label_domain, kinds, weights,
           missing, name_of) -> Dataset:
    """Intern token rows into a Dataset.

    rows holds each row's feature tokens, and is emptied as it is
    interned; labels holds each row's label token, and weights, when
    given, is at least as long. missing is the token of an absent value, or of an absent
    label, which is a fault, and name_of(token) the value any other token
    names. A fault raises the error of the first faulty row, in each row
    its length, its slots in column order, then its label, then its
    weight; an overflowing weight total ranks after every row's faults.
    """
    arity = len(feature_names)
    if len(set(feature_names)) != arity:
        raise DataError("duplicate feature names")
    declared = [None] * arity if domains is None else domains
    kinds = [CATEGORICAL] * arity if kinds is None else kinds
    for what, given in (("domains", declared), ("kinds", kinds)):
        if len(given) != arity:
            raise DataError(f"{len(given)} {what} for {arity} features")
    for x, dom in enumerate(declared):
        if dom is not None and len(set(dom)) != len(dom):
            raise DataError(f"feature {feature_names[x]!r} declares duplicate values")
    if label_domain is not None and len(set(label_domain)) != len(label_domain):
        raise DataError("duplicate labels")

    faults = []  # (row, rank in the row, error); the least one is raised
    lengths = list(map(len, rows))
    if lengths.count(arity) != len(rows):
        bad = next(i for i, k in enumerate(lengths) if k != arity)
        faults.append((bad, -1, DataError(
            f"row {bad + 1} has {lengths[bad]} values, expected {arity}")))
        rows, labels = rows[:bad], labels[:bad]  # a fault in an earlier row ranks first
    domains = (*declared, label_domain)  # the labels are one more column
    tables = [_table(dom, missing, name_of) for dom in domains]
    seeded = list(map(len, tables))  # a table's keys after these are the tokens lookups added
    # One choice of pass, each the faster where it runs (medians of 25, 2-vCPU
    # host, Python 3.11): with every domain declared the tables stay small, and
    # one row-major pass took 31 ms against 72 ms a column at a time on 20000x20
    # discretized ARFF tokens; first-appearance tables grow to thousands of
    # tokens, and there a pass per column took 98 ms against 153 ms (20000x20 CSV).
    if None not in declared:
        ids = list(map(dict.__getitem__, cycle(tables[:-1]), chain.from_iterable(rows)))
        rows.clear()
        columns = [ids[x::arity] for x in range(arity)]
    else:
        columns = list(zip(*rows)) or [()] * arity
        rows.clear()
        for x in range(arity):  # each token column is freed as it is interned
            columns[x] = tuple(map(tables[x].__getitem__, columns[x]))
    columns.append(tuple(map(tables[-1].__getitem__, labels)))
    values = []
    for x, (dom, table) in enumerate(zip(domains, tables)):
        columns[x], names, unnamed = _named(columns[x], table, seeded[x], dom, name_of)
        values.append(names)
        if unnamed:
            i, v = unnamed
            what = (f"value {v!r} not in the declared domain of feature {feature_names[x]!r}"
                    if x < arity else f"label {v!r} not in the declared classes")
            faults.append((i, x, DataError(f"row {i + 1}: {what}")))
    label_ids = columns.pop()
    if MISSING in label_ids:
        i = label_ids.index(MISSING)
        faults.append((i, arity, DataError(f"row {i + 1}: missing class label")))
    n = len(label_ids)
    weights = (1.0,) * n if weights is None else tuple(islice(weights, n))
    fault = _weight_fault(weights)  # a sum that overflows ranks after every row's faults
    if fault:
        faults.append((fault[0], arity + 1, fault[1]))
    if faults:
        raise min(faults)[2]

    features = [Feature(feature_names[x], values[x], kinds[x]) for x in range(arity)]
    return Dataset._trusted(features, Rows(columns, label_ids, weights), values[-1], name)


def dataset_from_rows(
    name: str,
    feature_names: list[str],
    rows: list[list[str | None]],
    labels: list[str],
    *,
    domains: list[tuple[str, ...]] | None = None,
    label_domain: tuple[str, ...] | None = None,
    kinds: list[str] | None = None,
    weights: list[float] | None = None,
) -> Dataset:
    """Intern token rows (None = missing) into a Dataset.

    Value and label identifiers follow the declared domain when one is
    given, first appearance order otherwise. Rows pair with labels as zip
    pairs them; weights, when given, holds one per row. Interning yields
    valid slots and labels, so only names, row lengths, declared domains,
    kinds and weights are checked, and the first faulty row raises.
    """
    n = min(len(rows), len(labels))
    if weights is not None and len(weights) < n:
        raise DataError(f"{len(weights)} weights for {n} rows")
    return _build(name, feature_names, list(rows[:n]), labels[:n], domains, label_domain,
                  kinds, weights, None, _same)


@contextmanager
def _open_text(path: Path, newline: str | None = None):
    """path opened as UTF-8 text; a byte that is not UTF-8 raises DataError."""
    try:
        with path.open(encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


@collector_paused()
def load_csv(
    path,
    class_index: int | str = "last",
    missing_token: str = "?",
    header: bool = True,
    name: str | None = None,
) -> Dataset:
    """Read an RFC-4180 CSV file into a Dataset.

    class_index is a 0-based column index or "last". Cells equal to
    missing_token become MISSING. With header=False, columns are named
    f1..fn.
    """
    check_flag("header", header)
    if not isinstance(class_index, str):
        check_count("class_index", class_index)
    elif class_index != "last":
        try:
            class_index = int(class_index)
        except ValueError:
            raise ConfigError(
                f"bad class index {class_index!r}: expected a 0-based column or 'last'"
            ) from None
    path = Path(path)
    with _open_text(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")

    if header:
        column_names = rows.pop(0)
        first_record = 1
    else:
        column_names = [f"f{k + 1}" for k in range(len(rows[0]))]
        first_record = 0
    arity = len(column_names)
    if arity == 0:
        raise DataError(f"{path}: no columns")

    if class_index == "last":
        cls = arity - 1
    else:
        cls = class_index
        if not 0 <= cls < arity:
            raise DataError(f"{path}: class index {class_index} out of range for {arity} columns")

    lengths = list(map(len, rows))
    bad = len(rows)
    if lengths.count(arity) != bad:
        bad = next(j for j, k in enumerate(lengths) if k != arity)
        del rows[bad:]
    labels = [row.pop(cls) for row in rows]
    if missing_token in labels:
        line = _record_line(path, first_record + labels.index(missing_token))
        raise DataError(f"{path}: line {line} has a missing class label")
    if bad < len(lengths):
        line = _record_line(path, first_record + bad)
        raise DataError(f"{path}: line {line} has {lengths[bad]} fields, expected {arity}")
    feature_names = column_names[:cls] + column_names[cls + 1:]
    return _build(name if name is not None else path.stem, feature_names, rows, labels,
                  None, None, None, None, missing_token, _same)


def _record_line(path: Path, k: int) -> int:
    """The line CSV record k (from 0) of path starts on, one after the line
    record k - 1 ends on: a quoted field may span lines."""
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for _ in zip(range(k), reader):
            pass
        return reader.line_num + 1


def _token_rows(rows: Rows, tables, missing: str):
    """Each row's tokens: tables[x][slot], or missing for MISSING, for each feature x,
    then tables[-1][label id]; each column is recoded whole before the rows are zipped."""
    columns = (*rows.columns, rows.label_ids)
    return zip(*[recode(col, table, missing) for table, col in zip(tables, columns)])


def _csv_quote(token: str, every: bool) -> str:
    """token as a field of csv.writer with "\n" line ends: quoted, each '"'
    doubled, when every is set or it holds ',', '"' or '\n'."""
    if every or "," in token or '"' in token or "\n" in token:
        return '"' + token.replace('"', '""') + '"'
    return token


def _save_csv(d: Dataset, path: Path, missing_token: str) -> None:
    if d.instances.weights.count(1.0) != len(d.instances):
        log.warning("CSV output drops instance weights; use ARFF to keep them")
    tables = [f.values for f in d.features] + [d.labels]
    header = [f.name for f in d.features] + ["class"]
    # "\r" is no line end here, so a token holding one is kept whole by quoting every
    # field; the missing token is one only where there is a feature slot to hold it.
    every = "\r" in "".join(map("".join, [header, *tables])) + missing_token * bool(d.features)
    tables = [[_csv_quote(token, every) for token in table] for table in tables]
    if not d.features:  # each row is the label alone, and a lone empty field is written ""
        tables[-1] = ['""' if token == "" else token for token in tables[-1]]
    lines = [",".join(_csv_quote(h, every) for h in header)]
    lines += map(",".join, _token_rows(d.instances, tables, _csv_quote(missing_token, every)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# ARFF subset
# ---------------------------------------------------------------------------

# Any str.isspace character triggers quoting too: load_arff strips and splits on them.
_ARFF_QUOTE_TRIGGERS = set(",{}%'\"\\")


def _arff_quote(token: str, owner: str) -> str:
    if "\n" in token or "\r" in token:
        raise DataError(f"{owner}: token {token!r} holds a line break, which ARFF cannot store")
    if token == "" or token == "?" or any(c in _ARFF_QUOTE_TRIGGERS or c.isspace() for c in token):
        escaped = token.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return token


def _read_quoted(text: str, i: int, where: str) -> tuple[str, int]:
    """Read the quoted token opening at text[i]; return it and the index after
    its closing quote. A backslash escapes the next character."""
    quote = text[i]
    i += 1
    buf = []
    while i < len(text):
        c = text[i]
        if c == "\\" and i + 1 < len(text):
            buf.append(text[i + 1])
            i += 2
            continue
        if c == quote:
            return "".join(buf), i + 1
        buf.append(c)
        i += 1
    raise DataError(f"{where}: unterminated quote")


def _split_quoted(text: str, where: str):
    """Split a comma-separated ARFF payload, honouring quotes and escapes.

    Returns (token, was_quoted) pairs.
    """
    out = []
    i, n = 0, len(text)
    while True:
        while i < n and text[i] in " \t":
            i += 1
        if i < n and text[i] in "'\"":
            token, i = _read_quoted(text, i, where)
            out.append((token, True))
            while i < n and text[i] in " \t":
                i += 1
        else:
            j = i
            while j < n and text[j] != ",":
                j += 1
            out.append((text[i:j].strip(), False))
            i = j
        if i >= n:
            break
        if text[i] != ",":
            raise DataError(f"{where}: expected ',' after quoted token")
        i += 1
    return out


def _read_name(text: str, where: str):
    """Pull a possibly quoted name off the front of text; return (name, rest)."""
    text = text.lstrip()
    if not text:
        raise DataError(f"{where}: missing name")
    if text[0] in "'\"":
        name, end = _read_quoted(text, 0, where)
        return name, text[end:].strip()
    parts = text.split(None, 1)
    return parts[0], (parts[1].strip() if len(parts) > 1 else "")


def _arff_name(token):
    """The value a data-line token names: a quoted token, kept as a
    1-tuple, its text; an unquoted one its stripped text, None for '?'."""
    if type(token) is tuple:
        return token[0]
    token = token.strip()
    return None if token == "?" else token


def _arff_quoted_row(line: str, width: int, where: str):
    """Tokens and weight of a data line holding a quote or a brace; quoted
    tokens come as 1-tuples, so they name their text as is (see _arff_name)."""
    if line.startswith("{"):
        raise UnsupportedFeatureError(f"{where}: sparse rows are not supported")
    toks = _split_quoted(line, where)
    weight = 1.0
    if len(toks) == width + 1:
        last, was_quoted = toks[-1]
        if not was_quoted and last.startswith("{") and last.endswith("}"):
            try:
                weight = float(last[1:-1])
            except ValueError:
                raise DataError(f"{where}: bad instance weight {last!r}") from None
            toks = toks[:-1]
    return [(t,) if q else t for t, q in toks], weight


@collector_paused()
def load_arff(path) -> Dataset:
    path = Path(path)
    relation = path.stem
    attr_names: list[str] = []
    attr_domains: list[tuple[str, ...] | None] = []
    kinds_override: list[str] | None = None
    rows: list[list] = []  # raw tokens per data line (see _arff_name)
    weighted: dict[int, float] = {}  # row -> weight, for rows that give one
    in_data = False

    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "%":
                body = line[1:].strip()
                if body.startswith("kinds:"):
                    kinds_override = [k.strip() for k in body[len("kinds:") :].split(",")]
                continue
            if in_data:
                if "'" in line or '"' in line or "{" in line:
                    toks, weight = _arff_quoted_row(line, width, f"{path}:{lineno}")
                    if weight != 1.0:
                        weighted[len(rows)] = weight
                else:
                    toks = line.split(",")
                if len(toks) != width:
                    raise DataError(f"{path}:{lineno}: {len(toks)} values, expected {width}")
                if type(toks[-1]) is str and toks[-1].strip() == "?":  # a quoted '?' is a value
                    raise DataError(f"{path}:{lineno}: missing class label")
                rows.append(toks)
                continue

            where = f"{path}:{lineno}"
            keyword = line.split(None, 1)[0].lower()  # a whole word: "@database" is not "@data"
            if keyword == "@relation":
                relation, _ = _read_name(line[len("@relation") :], where)
            elif keyword == "@attribute":
                aname, spec = _read_name(line[len("@attribute") :], where)
                attr_names.append(aname)
                if spec.startswith("{"):
                    if not spec.endswith("}"):
                        raise DataError(f"{where}: unterminated nominal domain")
                    body = spec[1:-1]  # "{}" declares no value; the writer quotes "" as ''
                    domain = _split_quoted(body, where) if body.strip() else ()
                    attr_domains.append(tuple(tok for tok, _ in domain))
                elif spec.lower() in ("numeric", "real", "integer"):
                    attr_domains.append(None)
                else:
                    kind = spec.split(None, 1)[0] if spec else "(empty)"
                    raise UnsupportedFeatureError(
                        f"{where}: unsupported attribute type {kind!r}"
                    )
            elif keyword == "@data":
                if not attr_names:
                    raise DataError(f"{where}: @data before any @attribute")
                in_data = True
                width = len(attr_names)
            else:
                raise DataError(f"{where}: unrecognized declaration {line.split()[0]!r}")

    if not attr_names:
        raise DataError(f"{path}: no @attribute declarations")
    if not in_data:
        raise DataError(f"{path}: no @data section")
    if attr_domains[-1] is None:
        raise UnsupportedFeatureError(f"{path}: numeric class attribute is not supported")

    feature_names = attr_names[:-1]
    if kinds_override is not None and len(kinds_override) != len(feature_names):
        raise DataError(f"{path}: kinds comment does not match the attribute count")
    labels = [row.pop() for row in rows]
    weights = None
    if weighted:
        weights = [1.0] * len(labels)
        for i, w in weighted.items():
            weights[i] = w
    return _build(relation, feature_names, rows, labels, attr_domains[:-1], attr_domains[-1],
                  kinds_override, weights, "?", _arff_name)


def _save_arff(d: Dataset, path: Path) -> None:
    lines = [f"@relation {_arff_quote(d.name, 'the relation name')}"]
    tables = [[_arff_quote(v, f"feature {f.name!r}") for v in f.values] for f in d.features]
    tables.append([_arff_quote(v, "the class") for v in d.labels])
    for f, table in zip(d.features, tables):
        lines.append(f"@attribute {_arff_quote(f.name, 'a feature name')} {{{','.join(table)}}}")
    lines.append(f"@attribute class {{{','.join(tables[-1])}}}")
    if any(f.kind != CATEGORICAL for f in d.features):
        lines.append("% kinds: " + ",".join(f.kind for f in d.features))
    lines.append("@data")
    for row, w in zip(map(",".join, _token_rows(d.instances, tables, "?")), d.instances.weights):
        lines.append(row if w == 1.0 else f"{row},{{{w!r}}}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


#: The dataset file formats, by the name a format argument gives them.
FORMATS = ("csv", "arff")


def _format_of(path: Path, format: str | None) -> str:
    """format, or else what path's suffix names: "arff" for .arff in any case, "csv" otherwise."""
    format = ("arff" if path.suffix.lower() == ".arff" else "csv") if format is None else format
    check_choice("dataset format", format, FORMATS)
    return format


def save_dataset(d: Dataset, path, format: str | None = None, missing_token: str = "?") -> None:
    """Write d to path as "arff" (lossless) or "csv", by its suffix unless format is given."""
    path = Path(path)
    if _format_of(path, format) == "arff":
        _save_arff(d, path)
    else:
        _save_csv(d, path, missing_token)


def load_dataset(path, format: str | None = None, **kwargs) -> Dataset:
    """Dispatch to load_csv or load_arff, by the path's suffix unless format is given.

    kwargs are load_csv's options; ARFF input takes none of them, so one
    that differs from load_csv's default raises ConfigError naming it.
    """
    path = Path(path)
    if _format_of(path, format) == "arff":
        csv_options = inspect.signature(load_csv)
        for key, value in csv_options.bind(path, **kwargs).arguments.items():
            if key != "path" and value != csv_options.parameters[key].default:
                raise ConfigError(f"option {key}={value!r} applies to CSV input only, "
                                  f"not to ARFF input {path}")
        return load_arff(path)
    return load_csv(path, **kwargs)
