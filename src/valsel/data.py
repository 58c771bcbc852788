"""Dataset container and file round-tripping.

A Dataset holds categorical instances over a fixed feature list. Every
value is interned per feature as a small integer identifier (its index
into the feature's value tuple) so that removal masks and counting stay
cheap array work; MISSING is a reserved sentinel distinct from any
identifier. Datasets are immutable after construction: filters and
discretizers return new Dataset objects.

Rows are validated where they come in (the Dataset constructor, and
dataset_from_rows for what interning does not guarantee); datasets derived
from valid ones are not re-validated. discretize.apply, pvs and pvs_plus
map slots through tables over the schema and build via Dataset._trusted;
with_instances checks unless its rows are, by identity, its own in their
order (Instance is frozen, so those stay valid), as folds and row filters.

Readers: RFC-4180 CSV with a configurable missing token, and the ARFF
subset covering @relation, nominal and numeric @attribute declarations,
and dense @data rows with '?' for missing. String, date, relational and
sparse ARFF constructs are rejected with UnsupportedFeatureError. The
last attribute is the class by convention.

Writers are byte-stable: the same Dataset always serializes to the same
bytes. ARFF output is lossless (declared value order, unobserved values,
instance weights, feature kinds survive a round trip). CSV output cannot
carry declared-but-unobserved values, value order other than first
appearance, feature kinds, or instance weights; datasets that came from
CSV round-trip exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import contains, getitem
from pathlib import Path

from .errors import ConfigError, DataError, UnsupportedFeatureError

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


@dataclass(frozen=True, eq=False)
class Dataset:
    features: tuple[Feature, ...]
    instances: tuple[Instance, ...]
    labels: tuple[str, ...]
    name: str = "dataset"

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "labels", tuple(self.labels))
        self._validate()

    @classmethod
    def _trusted(cls, features, instances, labels, name: str) -> "Dataset":
        """A Dataset built without _validate, for rows already known valid."""
        d = object.__new__(cls)
        d.__dict__.update(features=tuple(features), instances=tuple(instances),
                          labels=tuple(labels), name=name)
        return d

    def _validate(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("duplicate feature names")
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate labels")
        if self.instances and not self.labels:
            raise DataError("dataset with instances must declare at least one label")
        arity = len(self.features)
        for i, inst in enumerate(self.instances):
            if len(inst.slots) != arity:
                raise DataError(
                    f"instance {i} has {len(inst.slots)} slots, expected {arity}"
                )
            for x, z in enumerate(inst.slots):
                if z == MISSING:
                    continue
                if not 0 <= z < len(self.features[x].values):
                    raise DataError(
                        f"instance {i} references unknown value id {z} "
                        f"of feature {self.features[x].name!r}"
                    )
            if not 0 <= inst.label < len(self.labels):
                raise DataError(f"instance {i} references unknown label id {inst.label}")
            if not (inst.weight >= 0.0):
                raise DataError(f"instance {i} has negative or NaN weight")

    # Equality covers content identity: feature names, value tuples and
    # their order, slot values and missing pattern, weights, and the label
    # list with its order. The dataset name and feature kinds are metadata
    # and excluded, so a lossy-but-faithful CSV round trip still compares
    # equal.
    def _canonical(self):
        return (
            tuple((f.name, f.values) for f in self.features),
            self.labels,
            tuple((i.slots, i.label, i.weight) for i in self.instances),
        )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self.fingerprint)

    @cached_property
    def fingerprint(self) -> str:
        """Content hash used to detect stale metric tables.

        Datasets equal under == hash alike: the header (feature names and
        value tuples, labels, row count) goes in as its repr, then slots,
        label ids and weights as flat arrays, each weight as a double with
        -0.0 read as 0.0.
        """
        rows = self.instances
        features = tuple((f.name, f.values) for f in self.features)
        h = hashlib.sha1(repr((features, self.labels, len(rows))).encode())
        h.update(array("q", list(chain.from_iterable(i.slots for i in rows))))
        h.update(array("q", [i.label for i in rows]))
        h.update(array("d", [i.weight + 0.0 for i in rows]))  # -0.0 + 0.0 is 0.0
        return h.hexdigest()[:16]

    def value_token(self, x: int, z: int) -> str | None:
        """Token for value id z of feature x; None when z is MISSING."""
        if z == MISSING:
            return None
        return self.features[x].values[z]

    def column(self, x: int) -> list[int]:
        return [inst.slots[x] for inst in self.instances]

    def with_instances(self, instances) -> "Dataset":
        """New dataset sharing this schema (features and labels); validated
        unless the instances are, by identity, rows of this dataset in order."""
        instances = tuple(instances)
        rows = map(id, self.instances)  # each contains() below consumes it through its match
        if all(map(contains, repeat(rows), map(id, instances))):
            return Dataset._trusted(self.features, instances, self.labels, self.name)
        return Dataset(self.features, instances, self.labels, self.name)

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.instances)} instances, "
            f"{len(self.features)} features, {len(self.labels)} labels"
        )


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
    given, first appearance order otherwise. Interning yields valid slots
    and labels, so only names, declared domains and weights are checked.
    """
    arity = len(feature_names)
    if len(set(feature_names)) != arity:
        raise DataError("duplicate feature names")
    declared = [None] * arity if domains is None else domains
    value_ids = [{} if dom is None else {v: i for i, v in enumerate(dom)} for dom in declared]
    for x, dom in enumerate(declared):
        if dom is not None and len(value_ids[x]) != len(dom):
            raise DataError(f"feature {feature_names[x]!r} declares duplicate values")
    label_ids: dict[str, int] = (
        {} if label_domain is None else {v: i for i, v in enumerate(label_domain)}
    )
    if label_domain is not None and len(label_ids) != len(label_domain):
        raise DataError("duplicate labels")

    instances = []
    for i, (row, lab) in enumerate(zip(rows, labels)):
        if len(row) != arity:
            raise DataError(f"row {i + 1} has {len(row)} values, expected {arity}")
        slots = []
        for x, tok in enumerate(row):
            if tok is None:
                slots.append(MISSING)
                continue
            ids = value_ids[x]
            if tok not in ids:
                if declared[x] is not None:
                    raise DataError(
                        f"row {i + 1}: value {tok!r} not in the declared domain "
                        f"of feature {feature_names[x]!r}"
                    )
                ids[tok] = len(ids)
            slots.append(ids[tok])
        if lab not in label_ids:
            if label_domain is not None:
                raise DataError(f"row {i + 1}: label {lab!r} not in the declared classes")
            label_ids[lab] = len(label_ids)
        w = 1.0 if weights is None else weights[i]
        if not w >= 0.0:
            raise DataError(f"instance {i} has negative or NaN weight")
        instances.append(Instance(tuple(slots), label_ids[lab], w))

    features = tuple(
        Feature(
            feature_names[x],
            tuple(value_ids[x]),
            CATEGORICAL if kinds is None else kinds[x],
        )
        for x in range(arity)
    )
    return Dataset._trusted(features, instances, tuple(label_ids), name)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


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
    if class_index != "last":
        try:
            class_index = int(class_index)
        except ValueError:
            raise ConfigError(
                f"bad class index {class_index!r}: expected a 0-based column or 'last'"
            ) from None
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: empty file")

    if header:
        column_names = rows[0]
        data_rows = rows[1:]
        first_line = 2
    else:
        column_names = [f"f{k + 1}" for k in range(len(rows[0]))]
        data_rows = rows
        first_line = 1
    arity = len(column_names)
    if arity == 0:
        raise DataError(f"{path}: no columns")

    if class_index == "last":
        cls = arity - 1
    else:
        cls = class_index
        if not 0 <= cls < arity:
            raise DataError(f"{path}: class index {class_index} out of range for {arity} columns")

    feature_names = [n for k, n in enumerate(column_names) if k != cls]
    token_rows: list[list[str | None]] = []
    labels: list[str] = []
    for j, row in enumerate(data_rows):
        if len(row) != arity:
            raise DataError(
                f"{path}: line {first_line + j} has {len(row)} fields, expected {arity}"
            )
        cells = [None if c == missing_token else c for c in row]
        lab = cells[cls]
        if lab is None:
            raise DataError(f"{path}: line {first_line + j} has a missing class label")
        token_rows.append([c for k, c in enumerate(cells) if k != cls])
        labels.append(lab)

    return dataset_from_rows(
        name if name is not None else path.stem, feature_names, token_rows, labels
    )


def _save_csv(d: Dataset, path: Path, missing_token: str) -> None:
    if any(inst.weight != 1.0 for inst in d.instances):
        log.warning("CSV output drops instance weights; use ARFF to keep them")
    # Per-feature token tables end in the missing token, which MISSING (-1) indexes.
    tables = [f.values + (missing_token,) for f in d.features] + [d.labels]
    header = [f.name for f in d.features] + ["class"]
    # csv.writer quotes only its lineterminator's characters; "\r" needs QUOTE_ALL.
    cr = "\r" in "".join(map("".join, [header, *tables]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL if cr else csv.QUOTE_MINIMAL)
    writer.writerow(header)
    writer.writerows(map(getitem, tables, inst.slots + (inst.label,)) for inst in d.instances)
    path.write_text(buf.getvalue(), encoding="utf-8")


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


def load_arff(path) -> Dataset:
    path = Path(path)
    relation = path.stem
    attr_names: list[str] = []
    attr_domains: list[tuple[str, ...] | None] = []
    kinds_override: list[str] | None = None
    token_rows: list[list[str | None]] = []
    labels: list[str] = []
    weights: list[float] = []
    in_data = False

    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            where = f"{path}:{lineno}"
            if not line:
                continue
            if line.startswith("%"):
                body = line[1:].strip()
                if body.startswith("kinds:"):
                    kinds_override = [k.strip() for k in body[len("kinds:") :].split(",")]
                continue
            if not in_data:
                lowered = line.lower()
                if lowered.startswith("@relation"):
                    relation, _ = _read_name(line[len("@relation") :], where)
                elif lowered.startswith("@attribute"):
                    aname, spec = _read_name(line[len("@attribute") :], where)
                    attr_names.append(aname)
                    if spec.startswith("{"):
                        if not spec.endswith("}"):
                            raise DataError(f"{where}: unterminated nominal domain")
                        domain = tuple(
                            tok for tok, _ in _split_quoted(spec[1:-1], where)
                        )
                        attr_domains.append(domain)
                    elif spec.lower() in ("numeric", "real", "integer"):
                        attr_domains.append(None)
                    else:
                        kind = spec.split(None, 1)[0] if spec else "(empty)"
                        raise UnsupportedFeatureError(
                            f"{where}: unsupported attribute type {kind!r}"
                        )
                elif lowered.startswith("@data"):
                    if not attr_names:
                        raise DataError(f"{where}: @data before any @attribute")
                    in_data = True
                else:
                    raise DataError(f"{where}: unrecognized declaration {line.split()[0]!r}")
                continue

            # data section
            if line.startswith("{"):
                raise UnsupportedFeatureError(f"{where}: sparse rows are not supported")
            if "'" in line or '"' in line:
                toks = _split_quoted(line, where)
            else:  # the tokens _split_quoted gives for a line without quotes
                toks = [(t.strip(), False) for t in line.split(",")]
            weight = 1.0
            if len(toks) == len(attr_names) + 1:
                last, was_quoted = toks[-1]
                if not was_quoted and last.startswith("{") and last.endswith("}"):
                    try:
                        weight = float(last[1:-1])
                    except ValueError:
                        raise DataError(f"{where}: bad instance weight {last!r}") from None
                    toks = toks[:-1]
            if len(toks) != len(attr_names):
                raise DataError(
                    f"{where}: {len(toks)} values, expected {len(attr_names)}"
                )
            cells = [None if (t == "?" and not q) else t for t, q in toks]
            lab = cells[-1]
            if lab is None:
                raise DataError(f"{where}: missing class label")
            token_rows.append(cells[:-1])
            labels.append(lab)
            weights.append(weight)

    if not attr_names:
        raise DataError(f"{path}: no @attribute declarations")
    if not in_data:
        raise DataError(f"{path}: no @data section")
    if attr_domains[-1] is None:
        raise UnsupportedFeatureError(f"{path}: numeric class attribute is not supported")

    feature_names = attr_names[:-1]
    kinds = None
    if kinds_override is not None:
        if len(kinds_override) != len(feature_names):
            raise DataError(f"{path}: kinds comment does not match the attribute count")
        kinds = kinds_override
    return dataset_from_rows(
        relation,
        feature_names,
        token_rows,
        labels,
        domains=list(attr_domains[:-1]),
        label_domain=attr_domains[-1],
        kinds=kinds,
        weights=weights,
    )


def _save_arff(d: Dataset, path: Path) -> None:
    lines = [f"@relation {_arff_quote(d.name, 'the relation name')}"]
    # Each token is quoted once; a feature's table ends in "?", which MISSING (-1) indexes.
    tables = [
        [_arff_quote(v, f"feature {f.name!r}") for v in f.values] + ["?"] for f in d.features
    ]
    tables.append([_arff_quote(v, "the class") for v in d.labels])
    for f, table in zip(d.features, tables):
        domain = ",".join(table[:-1])
        lines.append(f"@attribute {_arff_quote(f.name, 'a feature name')} {{{domain}}}")
    lines.append(f"@attribute class {{{','.join(tables[-1])}}}")
    if any(f.kind != CATEGORICAL for f in d.features):
        lines.append("% kinds: " + ",".join(f.kind for f in d.features))
    lines.append("@data")
    for inst in d.instances:
        row = ",".join(map(getitem, tables, inst.slots + (inst.label,)))
        if inst.weight != 1.0:
            row += ",{" + repr(inst.weight) + "}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_dataset(d: Dataset, path, format: str = "arff", missing_token: str = "?") -> None:
    """Write d to path as "arff" (lossless) or "csv"."""
    path = Path(path)
    if format == "arff":
        _save_arff(d, path)
    elif format == "csv":
        _save_csv(d, path, missing_token)
    else:
        raise ConfigError(f"unknown dataset format {format!r}")


def load_dataset(path, format: str | None = None, **kwargs) -> Dataset:
    """Dispatch to load_csv or load_arff, sniffing from the suffix when format is None."""
    path = Path(path)
    if format is None:
        format = "arff" if path.suffix.lower() == ".arff" else "csv"
    if format == "arff":
        return load_arff(path)
    if format == "csv":
        return load_csv(path, **kwargs)
    raise ConfigError(f"unknown dataset format {format!r}")
