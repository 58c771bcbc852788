"""Differential tests of the column-at-a-time dataset builders.

dataset_from_rows_oracle, load_csv_oracle and load_arff_oracle below are
the row-at-a-time builders that interned one token at a time, kept as
the reference with two rules added since: a weight must be finite (an
infinite one is a fault of its row), and so must the weights' sum, added
left to right (a fault of the whole dataset, raised after every row's);
and a CSV fault names the line its record starts on, which is not the
record's index plus the header's once a quoted field spans lines.
On any input each builder must return the same Dataset as its oracle
(names, kinds, relation, value and label order, slots, labels, weights)
or raise the same exception type with the same text.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valsel.data import (
    CATEGORICAL,
    MISSING,
    Dataset,
    Feature,
    Instance,
    Rows,
    _arff_quote,
    _read_name,
    _split_quoted,
    dataset_from_rows,
    load_arff,
    load_csv,
)
from valsel.errors import ConfigError, DataError, UnsupportedFeatureError

# ---------------------------------------------------------------------------
# The row-at-a-time builders, verbatim
# ---------------------------------------------------------------------------


def dataset_from_rows_oracle(
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
    total = 0.0
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
        if w == math.inf:
            raise DataError(f"instance {i} has infinite weight")
        total += w
        instances.append(Instance(tuple(slots), label_ids[lab], w))
    if total == math.inf:
        raise DataError("instance weights add up to more than the largest float")

    features = tuple(
        Feature(
            feature_names[x],
            tuple(value_ids[x]),
            CATEGORICAL if kinds is None else kinds[x],
        )
        for x in range(arity)
    )
    return Dataset._trusted(features, Rows.of(instances, arity), tuple(label_ids), name)


def load_csv_oracle(
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
        rows, starts = [], []  # each record and the line it starts on
        start = 1
        for row in reader:
            rows.append(row)
            starts.append(start)
            start = reader.line_num + 1
    if not rows:
        raise DataError(f"{path}: empty file")

    if header:
        column_names = rows[0]
        data_rows = rows[1:]
        data_lines = starts[1:]
    else:
        column_names = [f"f{k + 1}" for k in range(len(rows[0]))]
        data_rows = rows
        data_lines = starts
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
                f"{path}: line {data_lines[j]} has {len(row)} fields, expected {arity}"
            )
        cells = [None if c == missing_token else c for c in row]
        lab = cells[cls]
        if lab is None:
            raise DataError(f"{path}: line {data_lines[j]} has a missing class label")
        token_rows.append([c for k, c in enumerate(cells) if k != cls])
        labels.append(lab)

    return dataset_from_rows_oracle(
        name if name is not None else path.stem, feature_names, token_rows, labels
    )


def load_arff_oracle(path) -> Dataset:
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
    return dataset_from_rows_oracle(
        relation,
        feature_names,
        token_rows,
        labels,
        domains=list(attr_domains[:-1]),
        label_domain=attr_domains[-1],
        kinds=kinds,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


def outcome(build, *args, **kwargs):
    """Everything a built Dataset holds, or the type and text of what it raised."""
    try:
        d = build(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    assert type(d) is Dataset
    return (
        d.name,
        [(f.name, f.values, f.kind) for f in d.features],
        d.labels,
        [(i.slots, i.label, repr(i.weight)) for i in d.instances],
    )


TOKENS = ["a", "b", "c", "1", "1.0", " a", ""]
WEIGHTS = [1.0, 0.5, 2.0, 0.0, -0.0, -1.0, float("nan"), float("inf"), 1e308]  # two 1e308 overflow


@st.composite
def row_inputs(draw):
    """dataset_from_rows arguments: ragged rows, None slots, declared
    domains that miss tokens or repeat one, bad kinds and weights."""
    arity = draw(st.integers(0, 3))
    names = [f"f{x}" for x in range(arity)]
    if arity > 1 and draw(st.integers(0, 9)) == 0:
        names[1] = names[0]
    n = draw(st.integers(0, 8))
    cell = st.one_of(st.none(), st.sampled_from(TOKENS))
    rows = []
    for _ in range(n):
        width = arity if draw(st.integers(0, 7)) else draw(st.integers(0, 4))
        rows.append(draw(st.lists(cell, min_size=width, max_size=width)))
    labels = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=n, max_size=n))
    if n and draw(st.integers(0, 9)) == 0:
        labels = labels[: draw(st.integers(0, n))]  # rows pair with labels as zip pairs them
    kwargs = {}
    if draw(st.booleans()):
        domains = []
        for _ in range(arity):
            dom = draw(st.one_of(st.none(), st.lists(st.sampled_from(TOKENS), max_size=6)))
            if dom is not None and draw(st.integers(0, 5)):
                dom = list(dict.fromkeys(dom))
            domains.append(None if dom is None else tuple(dom))
        kwargs["domains"] = domains
    if draw(st.booleans()):
        classes = draw(st.permutations(["p", "q", "r"]))
        kwargs["label_domain"] = tuple(classes[: draw(st.integers(1, 3))])
    if draw(st.booleans()):
        kwargs["kinds"] = draw(
            st.lists(st.sampled_from([CATEGORICAL, "discretized-numeric", "bogus"]),
                     min_size=arity, max_size=arity)
        )
    if draw(st.booleans()):
        kwargs["weights"] = draw(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n))
    return names, rows, labels, kwargs


@settings(max_examples=400, deadline=None)
@given(row_inputs())
def test_dataset_from_rows_matches_the_row_at_a_time_builder(case):
    names, rows, labels, kwargs = case
    assert outcome(dataset_from_rows, "t", names, rows, labels, **kwargs) == outcome(
        dataset_from_rows_oracle, "t", names, rows, labels, **kwargs
    )


CSV_CELLS = ["a", "b", "1.5", "?", "NA", "", " a", "x,y", 'q"t', "m\nl", "2\n\n3"]


@st.composite
def csv_inputs(draw):
    """CSV text with ragged rows, missing labels, quoted cells, no rows or one column."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        w = width if draw(st.integers(0, 11)) else draw(st.integers(0, 5))
        lines.append(draw(st.lists(st.sampled_from(CSV_CELLS), min_size=w, max_size=w)))
    if draw(st.integers(0, 5)) and lines:
        names = draw(st.lists(st.sampled_from(["n", "m", "k", "class"]), min_size=width,
                              max_size=width))
        lines[0] = names
    kwargs = {
        "class_index": draw(st.sampled_from(["last"] * 4 + [0, 1, "2", 7])),
        "missing_token": draw(st.sampled_from(["?", "NA"])),
        "header": draw(st.booleans()),
    }
    return lines, kwargs


@settings(max_examples=300, deadline=None)
@given(csv_inputs())
def test_load_csv_matches_the_row_at_a_time_reader(tmp_path_factory, case):
    lines, kwargs = case
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    assert outcome(load_csv, path, **kwargs) == outcome(load_csv_oracle, path, **kwargs)


# Attribute declarations, each with cells that name one of its values (or '?').
NOMINAL = ["a", " b", "c ", "'a'", '"b"', "?"]
NUMERIC = ["1.5", " 2", " 1.5", "?", "'?'", "zz", "''", "a\\\\b", "'x,y'"]
ARFF_DOMAINS = [
    ("{a,b,c}", NOMINAL),
    ("{a, b ,c}", NOMINAL),
    ("{'a',b,'?',c}", ["a", "'?'", "b", "?", " c"]),
    ("{' a',a,b}", ["' a'", " a", "a", "b", "?"]),
    ("{a,b,c,'b '}", ["'b '", "b ", "b", "a", "?"]),
    ("{'',a,'x,y'}", ["''", "", "a", "'x,y'", "?"]),
    ("numeric", NUMERIC),
    ("real", NUMERIC),
]
STRAY = ["zz", "'zz'", "'?'", "' a'", "?", " ? ", "{0 a}", "'open"]


@st.composite
def arff_inputs(draw):
    """ARFF text: padded, quoted and weighted data lines, '?' declared as a
    value, and now and then an unknown token, a ragged line, a missing
    label, a bad weight, a repeated or unsupported declaration."""
    fault = st.integers(0, 14).map(lambda k: k == 0)
    n_attr = draw(st.integers(1, 4))
    relation = draw(st.sampled_from(["r", "'q r'"]))
    lines = ["% a comment", f"@relation {relation}"]
    cells = []
    for k in range(n_attr):
        last = k == n_attr - 1
        if draw(fault):
            decl, ok = draw(st.sampled_from([("{a,a,b}", ["a"]), ("string", ["a"]), *ARFF_DOMAINS]))
        else:
            decl, ok = draw(st.sampled_from(ARFF_DOMAINS[:-2] if last else ARFF_DOMAINS))
        if last:
            ok = [c for c in ok if c.strip() != "?"]  # a label is never missing
        cells.append(ok)
        lines.append(f"@attribute x{k} {decl}")
    if draw(fault):
        kinds = draw(st.lists(st.sampled_from(["categorical", "discretized-numeric", "bad"]),
                              max_size=n_attr))
        lines.append("% kinds: " + ",".join(kinds))
    lines.append(draw(st.sampled_from(["@data", "@DATA", "@data  "])))
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(STRAY if draw(fault) else ok)) for ok in cells]
        if draw(fault):
            row = row[: draw(st.integers(1, n_attr))] + ["a"] * draw(st.integers(0, 2))
        line = ",".join(row)
        if draw(st.integers(0, 3)) == 0:
            weights = [",{2.5}", ", {0.5} ", ",{1}", ",{0}", ",{1e308}"]  # two 1e308 overflow
            if draw(fault):
                weights += [",{-1}", ",{nan}", ",{inf}", ",{x}"]
            line += draw(st.sampled_from(weights))
        lines.append(line)
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "% note"])))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(arff_inputs())
def test_load_arff_matches_the_row_at_a_time_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("arff") / "t.arff"
    path.write_text(text, encoding="utf-8")
    assert outcome(load_arff, path) == outcome(load_arff_oracle, path)


def test_empty_and_header_only_files(tmp_path):
    for name, text in [
        ("empty.csv", ""), ("head.csv", "a,b,class\n"), ("one.csv", "class\nx\ny\n"),
        ("empty.arff", ""), ("nodata.arff", "@relation r\n@attribute class {x}\n"),
        ("zero.arff", "@relation r\n@attribute class {x,y}\n@data\ny\nx\n"),
        ("head.arff", "@relation r\n@attribute a {p}\n@attribute class {x}\n@data\n"),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        if name.endswith(".csv"):
            assert outcome(load_csv, path) == outcome(load_csv_oracle, path)
        else:
            assert outcome(load_arff, path) == outcome(load_arff_oracle, path)


@pytest.mark.parametrize("text, header, message", [
    ('a,b,class\n"x\ny",1,p\nq,2\n', True, "line 4 has 2 fields, expected 3"),
    ('a,b,class\n"x\ny",1,p\nq,2\n', False, "line 4 has 2 fields, expected 3"),
    ('"a\nb",c\n1,?\n', True, "line 3 has a missing class label"),
    ('a,class\n"1\n\n2",p\n"3\n4",?\n', True, "line 5 has a missing class label"),
    ('a,class\n1,p\n\n2,q\n', True, "line 3 has 0 fields, expected 2"),
])
def test_csv_faults_name_the_line_their_record_starts_on(tmp_path, text, header, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as got:
        load_csv(path, header=header)
    assert str(got.value) == f"{path}: {message}"
    assert outcome(load_csv, path, header=header) == outcome(load_csv_oracle, path, header=header)


def test_first_fault_in_row_major_order():
    names = ["f0", "f1"]
    domains = [("a",), ("a",)]
    rows = [["a", "a"], ["a", "zz"], ["yy", "a"], ["a"]]
    for k in range(1, len(rows) + 1):
        args = ("t", names, rows[:k], ["p"] * k)
        kwargs = {"domains": domains, "label_domain": ("p",), "weights": [1.0, -1.0, 1.0, 1.0][:k]}
        assert outcome(dataset_from_rows, *args, **kwargs) == outcome(
            dataset_from_rows_oracle, *args, **kwargs
        )
    with_fault = outcome(dataset_from_rows, "t", names, rows, ["p"] * 4, domains=domains)
    assert with_fault == (DataError, "row 2: value 'zz' not in the declared domain of feature 'f1'")
    # in one row: its values, then its label, then its weight
    one_row = ("t", names, [["a", "zz"]], ["q"])
    for kwargs, message in [
        ({"domains": domains, "label_domain": ("p",), "weights": [-1.0]},
         "row 1: value 'zz' not in the declared domain of feature 'f1'"),
        ({"label_domain": ("p",), "weights": [-1.0]},
         "row 1: label 'q' not in the declared classes"),
        ({"weights": [-1.0]}, "instance 0 has negative or NaN weight"),
    ]:
        assert outcome(dataset_from_rows, *one_row, **kwargs) == (DataError, message)
        assert outcome(dataset_from_rows_oracle, *one_row, **kwargs) == (DataError, message)


# An all-nominal ARFF file is interned in one row-major pass; a token its
# table misses (quoted, padded or undeclared) sends it down the per-column
# pass, which must name the same first fault.
NOMINAL_HEAD = "@relation r\n@attribute f0 {a,b}\n@attribute f1 {a,b}\n@attribute class {p,q}\n"


@pytest.mark.parametrize("head, data, error", [
    ("", "a,zz,p\nyy,a,p\n", "row 1: value 'zz' not in the declared domain of feature 'f1'"),
    ("", "a,b,p\nyy,a,q\nb,zz,p\n", "row 2: value 'yy' not in the declared domain of feature 'f0'"),
    ("", "a,b,p,{-1}\nzz,a,p\n", "instance 0 has negative or NaN weight"),
    ("", "a,zz,p,{-1}\n", "row 1: value 'zz' not in the declared domain of feature 'f1'"),
    ("", "a,b,p,{-1}\n", "instance 0 has negative or NaN weight"),
    ("", "a,b,p,{1e308}\nb,a,q,{1e308}\n", "instance weights add up to more than the largest float"),
    ("", "a,b,p\nb,'zz',q\n", "row 2: value 'zz' not in the declared domain of feature 'f1'"),
    ("", "'a',b,p\nb,\"a\",'q'\n", None),
    ("", "a, b,p\nb ,a, q\n", None),
    ("", "a,b,p,{2.5}\nb,?,q\n?,a,p,{0}\n", None),
    ("% kinds: discretized-numeric,categorical\n", "a,b,p\nb,a,q\n", None),
    ("% kinds: discretized-numeric\n", "a,b,p\n", "kinds comment does not match the attribute count"),
])
def test_all_nominal_arff_names_the_first_fault_or_matches_the_oracle(tmp_path, head, data, error):
    path = tmp_path / "t.arff"
    path.write_text(NOMINAL_HEAD + head + "@data\n" + data, encoding="utf-8")
    got = outcome(load_arff, path)
    assert got == outcome(load_arff_oracle, path)
    if error is None:
        assert got[0] == "r"
    else:
        assert got[0] is DataError and got[1].endswith(error)


def test_all_nominal_arff_rows_land_in_their_columns(tmp_path):
    path = tmp_path / "t.arff"
    path.write_text(NOMINAL_HEAD + "@data\nb,a,q\na,?,p,{2.5}\nb,b,q\n", encoding="utf-8")
    d = load_arff(path)
    assert d.instances.columns == ((1, 0, 1), (0, MISSING, 1))
    assert d.instances.label_ids == (1, 0, 1)
    assert d.instances.weights == (1.0, 2.5, 1.0)


def test_dataset_from_rows_with_every_domain_declared():
    names = ["f0", "f1"]
    kwargs = {"domains": [("b", "a"), ("a", "b")], "label_domain": ("q", "p")}
    rows = [["a", "b"], ["b", None], [None, "a"]]
    d = dataset_from_rows("t", names, rows, ["p", "q", "p"], **kwargs)
    assert d.instances.columns == ((1, 0, MISSING), (1, MISSING, 0))
    assert d.instances.label_ids == (1, 0, 1)
    # an overflowing weight total ranks after a later row's fault
    ragged = ([["a", "b"], ["b", "a"], ["a"]], ["p"] * 3, {"weights": [1e308, 1e308, 1.0]})
    assert outcome(dataset_from_rows, "t", names, *ragged[:2], **kwargs, **ragged[2]) == (
        DataError, "row 3 has 1 values, expected 2")
    for case_rows, labels, extra in [
        (rows, ["p", "q", "p"], {}),
        ([["a", "zz"], ["yy", "a"]], ["p", "p"], {}),
        ([["a", "b"], ["b", "a"]], ["p", "r"], {}),
        ([["a", "b"], ["b", "a"]], ["p", "q"], {"weights": [1.0, float("inf")]}),
        ragged,
    ]:
        args = ("t", names, case_rows, labels)
        assert outcome(dataset_from_rows, *args, **kwargs, **extra) == outcome(
            dataset_from_rows_oracle, *args, **kwargs, **extra)
    assert outcome(dataset_from_rows, "t", names, rows, ["p"] * 3, domains=[("a",)]) == (
        DataError, "1 domains for 2 features")


def test_dataset_from_rows_checks_the_kinds_count():
    # A kinds list of the wrong length is a DataError naming the counts, as a
    # domains list is: short (not an IndexError), or long (not cut, even past
    # a bad kind that would never be read).
    names, rows = ["a", "b"], [["x", "y"]]
    for kinds, want in [
        (["categorical"], (DataError, "1 kinds for 2 features")),
        (["categorical", "discretized-numeric", "bogus"], (DataError, "3 kinds for 2 features")),
        ([], (DataError, "0 kinds for 2 features")),
    ]:
        assert outcome(dataset_from_rows, "t", names, rows, ["p"], kinds=kinds) == want
    assert outcome(dataset_from_rows, "t", ["a"], [["x"]], ["p"],
                   kinds=["categorical", "bogus"]) == (DataError, "2 kinds for 1 features")
    exact = ["categorical", "discretized-numeric"]
    d = dataset_from_rows("t", names, rows, ["p"], kinds=exact)
    assert [f.kind for f in d.features] == exact
    assert outcome(dataset_from_rows, "t", names, rows, ["p"], kinds=exact) == outcome(
        dataset_from_rows_oracle, "t", names, rows, ["p"], kinds=exact)
    # the count is checked before any row, as the domains' is
    assert outcome(dataset_from_rows, "t", names, [["x"]], ["p"], kinds=["categorical"]) == (
        DataError, "1 kinds for 2 features")
