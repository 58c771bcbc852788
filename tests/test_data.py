"""Dataset model, interning, CSV and ARFF round-trips."""

from __future__ import annotations

import csv
import dataclasses
import io
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valsel import (
    CATEGORICAL,
    DISCRETIZED,
    MISSING,
    ConfigError,
    DataError,
    Dataset,
    Feature,
    Instance,
    UnsupportedFeatureError,
    dataset_from_rows,
    load_arff,
    load_csv,
    load_dataset,
    save_dataset,
)
from valsel.data import _arff_quote, _split_quoted, recode

from conftest import value_token


def test_interning_follows_first_appearance(samples):
    f3 = samples.features[2]
    assert f3.values == ("2", "1", "-1")
    assert samples.instances[0].slots[2] == 0
    assert samples.instances[1].slots[2] == 1
    assert samples.instances[4].slots[2] == 2


def test_missing_slots_use_the_sentinel(samples):
    inst = samples.instances[0]
    assert inst.slots[0] == MISSING
    assert value_token(samples, 1, inst.slots[1]) == "1"
    assert value_token(samples, 0, inst.slots[0]) is None


@given(st.lists(st.text(max_size=2), max_size=6, unique=True).flatmap(
    lambda table: st.tuples(st.just(table), st.lists(st.integers(MISSING, len(table) - 1)))))
def test_recode_reads_ids_in_table_order_and_missing_for_missing(case):
    table, column = case
    assert recode(column, table, "?") == tuple("?" if z == MISSING else table[z] for z in column)
    assert recode((2, MISSING, 0), (5, 6, 7)) == (7, MISSING, 5)


def test_declared_domain_fixes_identifiers():
    d = dataset_from_rows(
        "t",
        ["a"],
        [["y"], ["x"]],
        ["0", "1"],
        domains=[("x", "y", "z")],
        label_domain=("0", "1"),
    )
    assert d.features[0].values == ("x", "y", "z")
    assert [i.slots[0] for i in d.instances] == [1, 0]


def test_value_outside_declared_domain_rejected():
    with pytest.raises(DataError):
        dataset_from_rows("t", ["a"], [["q"]], ["0"], domains=[("x", "y")])
    with pytest.raises(DataError):
        dataset_from_rows("t", ["a"], [["x"]], ["9"], domains=[("x",)], label_domain=("0",))


@pytest.mark.parametrize("label_domain", [("p", "q"), None])
def test_a_missing_label_is_a_data_error(label_domain):
    def build(rows, labels, weights=None):
        return dataset_from_rows(
            "t", ["a"], rows, labels, domains=[("u", "v")], label_domain=label_domain,
            weights=weights,
        )

    with pytest.raises(DataError, match=r"^row 2: missing class label$"):
        build([["u"], ["v"]], ["p", None])
    # in one row: its values, then its label, then its weight
    with pytest.raises(DataError, match="value 'w' not in the declared domain"):
        build([["w"]], [None])
    with pytest.raises(DataError, match=r"^row 1: missing class label$"):
        build([["u"]], [None], weights=[-1.0])


def test_row_arity_checked():
    with pytest.raises(DataError):
        dataset_from_rows("t", ["a", "b"], [["x"]], ["0"])
    with pytest.raises(DataError, match=r"^1 weights for 2 rows$"):
        dataset_from_rows("t", ["a"], [["x"], ["y"]], ["0", "1"], weights=[1.0])


def test_duplicate_feature_values_rejected():
    with pytest.raises(DataError):
        Feature("a", ("x", "x"))


def test_dataset_validation_rejects_bad_shapes():
    f = (Feature("a", ("x",)), Feature("a", ("y",)))
    with pytest.raises(DataError):
        Dataset(f, (), ("0",), "t")
    f = (Feature("a", ("x",)),)
    with pytest.raises(DataError):
        Dataset(f, (Instance((0, 0), 0),), ("0",), "t")
    with pytest.raises(DataError):
        Dataset(f, (Instance((5,), 0),), ("0",), "t")
    with pytest.raises(DataError):
        Dataset(f, (Instance((0,), 3),), ("0",), "t")
    with pytest.raises(DataError):
        Dataset(f, (Instance((0,), 0, weight=-1.0),), ("0",), "t")
    with pytest.raises(DataError):
        Dataset(f, (Instance((0,), 0),), ("0", "0"), "t")
    with pytest.raises(DataError, match="at least one label"):
        Dataset(f, (Instance((0,), 0),), (), "t")
    with pytest.raises(DataError, match="unknown feature kind 'bogus'"):
        Feature("a", ("x",), kind="bogus")


def test_equality_ignores_name_and_kind(samples):
    renamed = dataclasses.replace(samples, name="other")
    assert renamed == samples
    rekinded = Dataset(
        tuple(Feature(f.name, f.values, DISCRETIZED) for f in samples.features),
        samples.instances,
        samples.labels,
        samples.name,
    )
    assert rekinded == samples
    smaller = samples.with_instances(samples.instances[:-1])
    assert smaller != samples


def test_fingerprint_tracks_content(samples):
    again = build_copy(samples)
    assert samples.fingerprint == again.fingerprint
    assert samples.fingerprint != samples.with_instances(samples.instances[:2]).fingerprint
    assert len(samples.fingerprint) == 16


def test_equal_datasets_share_a_fingerprint(samples, tmp_path):
    save_dataset(samples, tmp_path / "s.csv", "csv")
    save_dataset(samples, tmp_path / "s.arff", "arff")
    from_csv = load_dataset(tmp_path / "s.csv")
    from_arff = load_dataset(tmp_path / "s.arff")
    rows = [[value_token(samples, x, z) for x, z in enumerate(i.slots)] for i in samples.instances]
    from_rows = dataset_from_rows(
        "rows", [f.name for f in samples.features], rows,
        [samples.labels[i.label] for i in samples.instances],
    )

    def reweighted(d, weight):
        return d.with_instances(Instance(i.slots, i.label, weight) for i in d.instances)

    twins = [from_csv, from_arff, from_rows, build_copy(samples), reweighted(samples, 1)]
    zero = reweighted(samples, 0.0)
    twins_of_zero = [reweighted(samples, -0.0), reweighted(samples, 0)]
    for d in twins:
        assert d == samples
        assert d.fingerprint == samples.fingerprint
    for d in twins_of_zero:
        assert d == zero
        assert d.fingerprint == zero.fingerprint


def test_fingerprint_changes_with_any_slot_label_weight_or_value_order(samples):
    def changed(row, **edit):
        rows = list(samples.instances)
        rows[row] = dataclasses.replace(rows[row], **edit)
        return samples.with_instances(rows)

    first = samples.instances[0]
    f0 = samples.features[0]
    flip = [*range(len(f0.values) - 1, -1, -1), MISSING]  # by old id; MISSING stays
    swapped = Dataset(
        (Feature(f0.name, f0.values[::-1]), *samples.features[1:]),
        [Instance((flip[i.slots[0]], *i.slots[1:]), i.label, i.weight) for i in samples.instances],
        samples.labels,
    )
    variants = [
        changed(0, slots=(0, *first.slots[1:])),
        changed(0, label=1 - first.label),
        changed(0, weight=0.5),
        swapped,
    ]
    for d in variants:
        assert d != samples
        assert d.fingerprint != samples.fingerprint
    assert len({d.fingerprint for d in variants}) == len(variants)


def build_copy(d: Dataset) -> Dataset:
    return Dataset(
        tuple(Feature(f.name, f.values, f.kind) for f in d.features),
        tuple(Instance(i.slots, i.label, i.weight) for i in d.instances),
        d.labels,
        "copy-under-another-name",
    )


def test_with_instances_keeps_schema(samples):
    d = samples.with_instances(samples.instances[:2])
    assert d.features == samples.features
    assert d.labels == samples.labels
    assert len(d.instances) == 2
    for inst in d.instances:
        for x, z in enumerate(inst.slots):
            assert z == MISSING or 0 <= z < len(d.features[x].values)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path, samples):
    p = tmp_path / "d.csv"
    save_dataset(samples, p, format="csv")
    back = load_csv(p)
    assert back == samples
    assert back.name == "d"


def test_csv_missing_token_configurable(tmp_path, samples):
    p = tmp_path / "d.csv"
    save_dataset(samples, p, format="csv", missing_token="NA")
    assert "NA" in p.read_text(encoding="utf-8")
    assert load_csv(p, missing_token="NA") == samples


def test_csv_class_index_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("class,a\n0,x\n1,y\n", encoding="utf-8")
    d = load_csv(p, class_index=0)
    assert [f.name for f in d.features] == ["a"]
    assert d.labels == ("0", "1")
    with pytest.raises(DataError):
        load_csv(p, class_index=7)
    with pytest.raises(ConfigError, match="bad class index 'foo'"):
        load_csv(p, class_index="foo")
    with pytest.raises(ConfigError, match="bad class index"):
        load_csv(tmp_path / "absent.csv", class_index="foo")  # checked before the file is read
    assert load_csv(p, class_index="0") == d


@pytest.mark.parametrize("value", [True, 1.7, None])
def test_csv_class_index_that_is_not_text_must_be_an_integer(tmp_path, value):
    # text is a column or "last"; any other value is an integer column
    p = tmp_path / "d.csv"
    p.write_text("class,a\n0,x\n1,y\n", encoding="utf-8")
    message = f"^class_index must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        load_csv(p, class_index=value)
    with pytest.raises(ConfigError, match=message):
        load_dataset(p, class_index=value)


def test_csv_headerless_names_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,0\ny,1\n", encoding="utf-8")
    d = load_csv(p, header=False)
    assert [f.name for f in d.features] == ["f1"]
    assert len(d.instances) == 2
    with pytest.raises(ConfigError, match=r"^header must be True or False, got 'no'$"):
        load_csv(p, header="no")  # a non-empty string would read the first row as names


def test_csv_quoted_cells_round_trip(tmp_path):
    d = dataset_from_rows(
        "q", ["a"], [['has,comma'], ['has"quote'], ["plain"]], ["0", "1", "0"]
    )
    p = tmp_path / "q.csv"
    save_dataset(d, p, format="csv")
    assert load_csv(p) == d


@pytest.mark.parametrize("token", ["\rx", "x\r", "a\r\nb"])
def test_csv_tokens_with_carriage_returns_round_trip(tmp_path, token):
    p = tmp_path / "cr.csv"
    value = dataset_from_rows("cr", ["a"], [[token], ["z"], [None]], ["0", "1", "0"])
    save_dataset(value, p, format="csv")
    assert load_csv(p) == value
    label = dataset_from_rows("cr", ["a"], [["x"], ["z"]], [token, "1"])
    save_dataset(label, p, format="csv")
    assert load_csv(p) == label
    name = dataset_from_rows("cr", [token], [["x"], ["z"]], ["0", "1"])
    save_dataset(name, p, format="csv")
    assert load_csv(p) == name


def test_csv_without_carriage_returns_quotes_minimally(tmp_path):
    d = dataset_from_rows("q", ["a", "b c"], [["x,y", None], ["p", "q"]], ["0", "1"])
    p = tmp_path / "q.csv"
    save_dataset(d, p, format="csv")
    assert p.read_bytes() == b'a,b c,class\n"x,y",?,0\np,q,1\n'


def test_csv_rejects_ragged_and_empty(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,class\nx\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(p)
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(p)
    p.write_text("a,class\nx,?\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(p)
    p.write_text("\nx,0\n", encoding="utf-8")
    with pytest.raises(DataError, match="no columns"):
        load_csv(p)


def test_csv_write_warns_about_weights(tmp_path, caplog):
    d = dataset_from_rows("w", ["a"], [["x"]], ["0"], weights=[2.0])
    with caplog.at_level("WARNING"):
        save_dataset(d, tmp_path / "w.csv", format="csv")
    assert any("weight" in r.message for r in caplog.records)


# csv.writer raises on a NUL before Python 3.11 ("need to escape"), so the
# reference below can only be asked about one from 3.11 on.
CSV_CHARS = [",", '"', "\n", "\r", " ", "\t", "é", "a", "b"] + ["\0"] * (sys.version_info >= (3, 11))
CSV_TOKENS = st.text(st.sampled_from(CSV_CHARS), max_size=3)


def csv_writer_bytes(d: Dataset, missing_token: str) -> bytes:
    """What csv.writer with "\n" line ends writes for d: every field quoted
    when a name, value, label or the missing token holds "\r"."""
    header = [f.name for f in d.features] + ["class"]
    tables = [f.values + (missing_token,) for f in d.features]
    rows = [[tables[x][z] for x, z in enumerate(i.slots)] + [d.labels[i.label]]
            for i in d.instances]
    every = "\r" in "".join(header + [t for table in tables for t in table] + list(d.labels))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n",
                        quoting=csv.QUOTE_ALL if every else csv.QUOTE_MINIMAL)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


@st.composite
def csv_datasets(draw):
    """Datasets whose names, values, labels and missing token mix quotes,
    commas, line breaks, blanks and empty tokens; some have no feature, so
    each row is one field."""
    names = draw(st.lists(CSV_TOKENS.filter(lambda t: t != "class"), max_size=3, unique=True))
    n = draw(st.integers(0, 5))
    cell = st.one_of(st.none(), CSV_TOKENS)
    rows = [draw(st.lists(cell, min_size=len(names), max_size=len(names))) for _ in range(n)]
    labels = draw(st.lists(CSV_TOKENS, min_size=n, max_size=n))
    return dataset_from_rows("c", names, rows, labels), draw(CSV_TOKENS)


@settings(max_examples=300, deadline=None)
@given(csv_datasets())
def test_the_csv_writer_writes_what_csv_writer_writes(tmp_path_factory, case):
    d, missing_token = case
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    save_dataset(d, p, format="csv", missing_token=missing_token)
    assert p.read_bytes() == csv_writer_bytes(d, missing_token)


# ---------------------------------------------------------------------------
# ARFF
# ---------------------------------------------------------------------------


def arff_round_trip(tmp_path, d: Dataset) -> Dataset:
    p = tmp_path / "d.arff"
    save_dataset(d, p, format="arff")
    return load_arff(p)


def test_arff_round_trip_plain(tmp_path, samples):
    back = arff_round_trip(tmp_path, samples)
    assert back == samples
    assert back.name == samples.name


def test_arff_round_trip_is_byte_stable(tmp_path, samples):
    p1, p2 = tmp_path / "a.arff", tmp_path / "b.arff"
    save_dataset(samples, p1, format="arff")
    save_dataset(samples, p2, format="arff")
    assert p1.read_bytes() == p2.read_bytes()


def test_arff_keeps_weights_kinds_and_unobserved_values(tmp_path):
    d = Dataset(
        (Feature("a", ("x", "y", "unused"), DISCRETIZED), Feature("b c", ("p",))),
        (Instance((0, 0), 0, weight=2.5), Instance((1, MISSING), 1)),
        ("0", "1", "spare"),
        "keeps",
    )
    back = arff_round_trip(tmp_path, d)
    assert back == d
    assert back.features[0].values == ("x", "y", "unused")
    assert back.features[0].kind == DISCRETIZED
    assert back.labels == ("0", "1", "spare")
    assert back.instances[0].weight == 2.5


def test_arff_keeps_a_feature_with_no_observed_value(tmp_path):
    d = dataset_from_rows("e", ["a", "b"], [[None, "x"], [None, "y"]], ["0", "1"])
    assert d.features[0].values == ()
    back = arff_round_trip(tmp_path, d)
    assert back == d and back.features[0].values == ()


def test_arff_quotes_awkward_tokens(tmp_path):
    weird = ["a,b", "c'd", "{x}", "%pct", "two words", "?", "", "back\\slash", 'dq"x',
             "\xa0x", "x\x0b", "\x0cx\x0c", "in\xa0side"]
    d = dataset_from_rows(
        "quoting",
        ["f"],
        [[w] for w in weird],
        [str(k % 2) for k in range(len(weird))],
    )
    back = arff_round_trip(tmp_path, d)
    assert back == d
    assert back.features[0].values == tuple(weird)


def test_arff_keeps_whitespace_in_names(tmp_path):
    d = dataset_from_rows("\x0crel", ["a\xa0b", "\xa0", "c\x0b"], [["x", "y", "z"]], [" 0"])
    back = arff_round_trip(tmp_path, d)
    assert back == d
    assert back.name == "\x0crel"


@pytest.mark.parametrize("token", ["x\ny", "x\r\ny", "\rx"])
def test_arff_writer_rejects_tokens_with_line_breaks(tmp_path, token):
    p = tmp_path / "nl.arff"
    value = dataset_from_rows("nl", ["a"], [[token], ["z"]], ["0", "1"])
    with pytest.raises(DataError, match=f"feature 'a': token {re.escape(repr(token))}"):
        save_dataset(value, p)
    label = dataset_from_rows("nl", ["a"], [["x"], ["z"]], [token, "1"])
    with pytest.raises(DataError, match=f"the class: token {re.escape(repr(token))}"):
        save_dataset(label, p)
    assert not p.exists()


def test_arff_numeric_attribute_becomes_open_domain(tmp_path):
    p = tmp_path / "n.arff"
    p.write_text(
        "@relation n\n"
        "@attribute height numeric\n"
        "@attribute class {0,1}\n"
        "@data\n"
        "1.5,0\n"
        "?,1\n"
        "2.5,1\n",
        encoding="utf-8",
    )
    d = load_arff(p)
    assert d.features[0].values == ("1.5", "2.5")
    assert d.instances[1].slots[0] == MISSING


def test_arff_rejects_unsupported_shapes(tmp_path):
    p = tmp_path / "bad.arff"
    p.write_text(
        "@relation b\n@attribute a string\n@attribute class {0}\n@data\nx,0\n",
        encoding="utf-8",
    )
    with pytest.raises(UnsupportedFeatureError):
        load_arff(p)
    p.write_text(
        "@relation b\n@attribute a {x}\n@attribute class numeric\n@data\nx,0\n",
        encoding="utf-8",
    )
    with pytest.raises(UnsupportedFeatureError):
        load_arff(p)
    p.write_text(
        "@relation b\n@attribute a {x}\n@attribute class {0}\n@data\n{0 x},0\n",
        encoding="utf-8",
    )
    with pytest.raises(UnsupportedFeatureError):
        load_arff(p)


def test_arff_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.arff"
    p.write_text("@data\nx\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_arff(p)
    p.write_text("@relation r\n@attribute a {x}\n@attribute class {0}\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_arff(p)
    p.write_text(
        "@relation r\n@attribute a {x}\n@attribute class {0}\n@data\nx,?\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        load_arff(p)
    p.write_text(
        "@relation r\n@attribute a {x}\n@attribute class {0}\n@data\nx,0,9\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        load_arff(p)
    header = "@relation r\n@attribute a {x}\n@attribute class {0}\n@data\n"
    for text, message in [
        (header + "'x,0\n", "unterminated quote"),
        (header + "'x' y,0\n", "expected ',' after quoted token"),
        ("@relation r\n@attribute\n", "missing name"),
        ("@relation r\n@attribute a {x,y\n", "unterminated nominal domain"),
        ("@relation r\n@foo bar\n", "unrecognized declaration '@foo'"),
        (header + "x,0,{abc}\n", "bad instance weight '{abc}'"),
        ("@relation r\n", "no @attribute declarations"),
        ("% kinds: categorical, categorical\n" + header + "x,0\n", "kinds comment"),
    ]:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_arff(p)


@pytest.mark.parametrize(
    "line, word",
    [("@database", "@database"), ("@relationship r", "@relationship"),
     ("@attributes a {x}", "@attributes"), ("@data,x", "@data,x"), ("@relation'r'", "@relation'r'")],
)
def test_arff_keywords_are_whole_words(tmp_path, line, word):
    p = tmp_path / "k.arff"
    p.write_text(f"@relation r\n@attribute class {{x}}\n{line}\nx\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"unrecognized declaration {word!r}")):
        load_arff(p)


@pytest.mark.parametrize("line", ["@DATA", "@data\t", "@Data % rows follow"])
def test_arff_keyword_ends_at_whitespace_or_the_line_end(tmp_path, line):
    p = tmp_path / "k.arff"
    p.write_text(f"@RELATION\tr\n@Attribute class {{x}}\n{line}\nx\n", encoding="utf-8")
    d = load_arff(p)
    assert d.name == "r" and len(d.instances) == 1


@pytest.mark.parametrize("suffix", [".csv", ".arff"])
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, suffix):
    p = tmp_path / f"bad{suffix}"
    head = b"a,class\n" if suffix == ".csv" else b"@relation r\n@attribute class {x}\n@data\n"
    p.write_bytes(head + b"caf\xe9\n")
    with pytest.raises(DataError, match=f"{re.escape(str(p))}: not UTF-8 text"):
        load_dataset(p)


def test_a_csv_field_over_the_reader_limit_is_a_data_error(tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("a,class\n" + "x" * 140_000 + ",y\n", encoding="utf-8")
    with pytest.raises(DataError, match="field larger than field limit"):
        load_csv(p)


def test_arff_weight_suffix_parsed(tmp_path):
    p = tmp_path / "w.arff"
    p.write_text(
        "@relation w\n@attribute a {x}\n@attribute class {0,1}\n@data\n"
        "x,0,{2.0}\nx,1\n",
        encoding="utf-8",
    )
    d = load_arff(p)
    assert d.instances[0].weight == 2.0
    assert d.instances[1].weight == 1.0


@pytest.mark.parametrize("weight", ["-1", "nan", "-0.5"])
def test_arff_rejects_negative_and_nan_weights(tmp_path, weight):
    p = tmp_path / "w.arff"
    p.write_text(
        "@relation w\n@attribute a {x}\n@attribute class {0,1}\n@data\n"
        f"x,0\nx,1,{{{weight}}}\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="instance 1 has negative or NaN weight"):
        load_arff(p)


def test_arff_rejects_an_infinite_weight_where_a_bad_weight_ranks(tmp_path):
    p = tmp_path / "w.arff"
    head = "@relation w\n@attribute a {x}\n@attribute class {0,1}\n@data\n"
    p.write_text(head + "x,0\nx,1,{inf}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^instance 1 has infinite weight$"):
        load_arff(p)
    # a row's value fault ranks before its weight, and an earlier row's weight before both
    p.write_text(head + "x,0\ny,1,{inf}\n", encoding="utf-8")
    with pytest.raises(DataError, match="value 'y' not in the declared domain"):
        load_arff(p)
    p.write_text(head + "x,0,{inf}\ny,1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^instance 0 has infinite weight$"):
        load_arff(p)


def test_weights_that_sum_past_the_largest_float_are_a_data_error(tmp_path):
    rows, labels = [["x"], ["y"]] * 3, ["0", "1"] * 3
    # an int past the float range is infinite, a fault of its row
    with pytest.raises(DataError, match=r"^instance 1 has infinite weight$"):
        dataset_from_rows("t", ["a"], rows, labels, weights=[1, 10**400, 1, 1, 1, 1])
    with pytest.raises(DataError, match=r"^instance weights add up to more than the largest float$"):
        dataset_from_rows("t", ["a"], rows, labels, weights=[1e308, 1e308, 1, 1, 1, 1])
    # each row's own fault still ranks first, wherever it is
    with pytest.raises(DataError, match=r"^instance 5 has negative or NaN weight$"):
        dataset_from_rows("t", ["a"], rows, labels, weights=[1e308, 1e308, 1, 1, 1, -1])
    with pytest.raises(DataError, match=r"^instance 2 has infinite weight$"):
        dataset_from_rows("t", ["a"], rows, labels, weights=[1.0, 1.0, float("inf"), 1, 1, 1])
    assert dataset_from_rows("t", ["a"], rows, labels, weights=[1e308, 1, 1, 1, 1, 1])
    p = tmp_path / "w.arff"
    p.write_text("@relation w\n@attribute a {x}\n@attribute class {0,1}\n@data\n"
                 "x,0,{1e308}\nx,1,{1e308}\n", encoding="utf-8")
    with pytest.raises(DataError, match="add up to more than the largest float"):
        load_arff(p)


def test_the_dataset_constructor_rejects_infinite_weights_and_overflowing_sums():
    f = (Feature("a", ("x",)),)
    rows = [Instance((0,), 0, 1e308), Instance((0,), 0, 1e308)]
    with pytest.raises(DataError, match=r"^instance weights add up to more than the largest float$"):
        Dataset(f, rows, ("0",), "t")
    with pytest.raises(DataError, match=r"^instance 1 has infinite weight$"):
        Dataset(f, [Instance((0,), 0), Instance((0,), 0, float("inf"))], ("0",), "t")
    # an earlier row's weight fault ranks before a later row's unknown value
    with pytest.raises(DataError, match=r"^instance 0 has infinite weight$"):
        Dataset(f, [Instance((0,), 0, float("inf")), Instance((5,), 0)], ("0",), "t")
    with pytest.raises(DataError, match=r"^instance 0 has negative or NaN weight$"):
        Dataset(f, [Instance((0,), 0, float("nan"))], ("0",), "t")
    with pytest.raises(DataError, match="add up to more than the largest float"):
        Dataset(f, [Instance((0,), 0)], ("0",), "t").with_instances(rows)


def test_a_weight_that_is_not_a_number_is_a_fault_of_its_row():
    with pytest.raises(DataError, match=r"^instance 0 has weight '1', which is not a number$"):
        dataset_from_rows("r", ["a"], [["x"]], ["p"], weights=["1"])
    f = (Feature("a", ("x",)),)
    with pytest.raises(DataError, match=r"^instance 0 has weight None, which is not a number$"):
        Dataset(f, [Instance((0,), 0, None)], ("p",), "t")
    # in row order with the other faults: an earlier row's bad value, a later row's weight
    with pytest.raises(DataError, match=r"^instance 0 references unknown value id 5"):
        Dataset(f, [Instance((5,), 0), Instance((0,), 0, "1")], ("p",), "t")
    with pytest.raises(DataError, match=r"^instance 0 has negative or NaN weight$"):
        dataset_from_rows("r", ["a"], [["x"], ["x"]], ["p", "p"], weights=[-1.0, "1"])
    with pytest.raises(DataError, match=r"^row 1: value 'y' not in the declared domain"):
        dataset_from_rows("r", ["a"], [["y"]], ["p"], domains=[("x",)], weights=[[1.0]])
    assert dataset_from_rows("r", ["a"], [["x"]], ["p"], weights=[2]).instances.weights == (2,)
    # a bool would be kept as True, and a Fraction written as its repr, which no reader takes
    for w in (True, Fraction(1, 2)):
        message = rf"^instance 0 has weight {re.escape(repr(w))}, which is not a number$"
        with pytest.raises(DataError, match=message):
            dataset_from_rows("r", ["a"], [["x"]], ["p"], weights=[w])
        with pytest.raises(DataError, match=message):
            Dataset(f, [Instance((0,), 0, w)], ("p",), "t")


@pytest.mark.parametrize(
    "declarations, message",
    [
        ("@attribute a {x,x,y}\n@attribute class {0,1}", "feature 'a' declares duplicate values"),
        ("@attribute a {x,y}\n@attribute class {0,0,1}", "duplicate labels"),
        ("@attribute a {x,y}\n@attribute a {x,y}\n@attribute class {0,1}", "duplicate feature names"),
    ],
)
def test_arff_rejects_duplicate_declarations(tmp_path, declarations, message):
    # Rows use only the first token of each doubled domain, which interning
    # would otherwise give the id of its later copy.
    p = tmp_path / "dup.arff"
    row = "x,x,0" if declarations.count("@attribute a") == 2 else "x,0"
    p.write_text(f"@relation r\n{declarations}\n@data\n{row}\n{row}\n", encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_arff(p)


def test_zero_feature_dataset_round_trips(tmp_path):
    d = Dataset((), (Instance((), 0), Instance((), 1)), ("0", "1"), "bare")
    back = arff_round_trip(tmp_path, d)
    assert back == d


def test_load_dataset_dispatches_on_suffix(tmp_path, samples):
    pa, pc = tmp_path / "d.arff", tmp_path / "d.csv"
    save_dataset(samples, pa, format="arff")
    save_dataset(samples, pc, format="csv")
    assert load_dataset(pa) == samples
    assert load_dataset(pc) == samples
    assert load_dataset(pc, format="csv") == samples
    with pytest.raises(ConfigError):
        load_dataset(pc, format="xml")
    with pytest.raises(ConfigError):
        save_dataset(samples, tmp_path / "d.bin", format="xml")


@st.composite
def plain_datasets(draw):
    """Unit-weight datasets with no declared domains, whose names and
    tokens both formats read back unchanged."""
    n_feat = draw(st.integers(1, 3))
    token = st.text("abxy", min_size=1, max_size=2)
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(st.one_of(st.none(), token), min_size=n_feat, max_size=n_feat))
            for _ in range(n)]
    labels = draw(st.lists(token, min_size=n, max_size=n))
    return dataset_from_rows("plain", [f"f{x}" for x in range(n_feat)], rows, labels)


@pytest.mark.parametrize("suffix", [".arff", ".ARFF", ".csv", ".txt", ""])
@settings(max_examples=40, deadline=None)
@given(plain_datasets())
def test_a_saved_file_is_written_in_the_format_its_suffix_names(tmp_path_factory, suffix, d):
    p = tmp_path_factory.mktemp("suffix") / f"d{suffix}"
    save_dataset(d, p)
    assert load_dataset(p) == d
    assert (load_arff if suffix.lower() == ".arff" else load_csv)(p) == d


TOKEN_ALPHABET = "ab0 ?,'{}%\\\"\tzX-é中\u00a0\x0b\x0c"
tokens = st.text(alphabet=TOKEN_ALPHABET, min_size=0, max_size=5)


@st.composite
def datasets(draw):
    n_feat = draw(st.integers(1, 4))
    names = draw(
        st.lists(tokens, unique=True, min_size=n_feat + 1, max_size=n_feat + 1)
    )
    domains = [
        tuple(draw(st.lists(tokens, unique=True, min_size=1, max_size=4)))
        for _ in range(n_feat)
    ]
    label_domain = tuple(draw(st.lists(tokens, unique=True, min_size=1, max_size=3)))
    n = draw(st.integers(0, 12))
    rows, labels, weights = [], [], []
    for _ in range(n):
        rows.append(
            [draw(st.one_of(st.none(), st.sampled_from(dom))) for dom in domains]
        )
        labels.append(draw(st.sampled_from(label_domain)))
        weights.append(draw(st.sampled_from([1.0, 1.0, 0.5, 2.25])))
    return dataset_from_rows(
        draw(tokens),
        names[:n_feat],
        rows,
        labels,
        domains=domains,
        label_domain=label_domain,
        weights=weights,
    )


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_arff_round_trip_property(tmp_path_factory, d):
    tmp = tmp_path_factory.mktemp("arff")
    p = tmp / "d.arff"
    save_dataset(d, p, format="arff")
    back = load_arff(p)
    assert back == d
    assert back.name == d.name
    assert tuple(f.values for f in back.features) == tuple(f.values for f in d.features)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_referential_closure(d):
    for inst in d.instances:
        for x, z in enumerate(inst.slots):
            assert z == MISSING or 0 <= z < len(d.features[x].values)
    assert all(f.kind == CATEGORICAL for f in d.features)


UNQUOTED_ALPHABET = "ab0 ?{}%\\\t.é中\u00a0"


@st.composite
def unquoted_data_lines(draw):
    """(attribute count, data line): tokens without quotes, commas or line breaks,
    sometimes followed by a weight token."""
    n_attr = draw(st.integers(1, 4))
    toks = draw(st.lists(st.text(UNQUOTED_ALPHABET, max_size=4), min_size=n_attr, max_size=n_attr))
    if draw(st.booleans()):
        toks.append(draw(st.sampled_from(["{2.5}", " {0.25}", "{1} ", "{3}\t"])))
    return n_attr, ",".join(toks)


@settings(max_examples=150, deadline=None)
@given(unquoted_data_lines())
def test_unquoted_data_lines_read_as_split_quoted_reads_them(tmp_path_factory, case):
    n_attr, raw = case
    line = raw.strip()
    assume(line and line[0] not in "%{")
    # oracle: the quote-aware splitter, then load_arff's weight and missing rules
    toks = _split_quoted(line, "line")
    weight = 1.0
    if len(toks) == n_attr + 1:
        weight = float(toks[-1][0][1:-1])
        toks = toks[:-1]
    cells = [None if t == "?" else t for t, _ in toks]
    assume(cells[-1] is not None)
    header = [f"@attribute x{k} numeric" for k in range(n_attr - 1)]
    header.append(f"@attribute class {{{_arff_quote(cells[-1], 'the class')}}}")
    p = tmp_path_factory.mktemp("lines") / "l.arff"
    p.write_text("\n".join(["@relation l", *header, "@data", raw]) + "\n", encoding="utf-8")
    d = load_arff(p)
    (inst,) = d.instances
    assert [value_token(d, x, z) for x, z in enumerate(inst.slots)] == cells[:-1]
    assert d.labels[inst.label] == cells[-1]
    assert inst.weight == weight


# ---------------------------------------------------------------------------
# Derived datasets skip validation and must still be valid
# ---------------------------------------------------------------------------


@st.composite
def pipeline_inputs(draw):
    """Numeric and categorical columns with missing slots, 1-3 labels, weights."""
    kinds = draw(st.lists(st.sampled_from(["num", "cat"]), min_size=1, max_size=4))
    tokens = {"num": [None, "0.5", "1", "2.25", "-3", "7", "1e3"], "cat": [None, "a", "b", "c"]}
    n = draw(st.integers(4, 30))
    rows = [[draw(st.sampled_from(tokens[k])) for k in kinds] for _ in range(n)]
    domain = ("0", "1", "2")[: draw(st.integers(1, 3))]
    labels = [draw(st.sampled_from(domain)) for _ in range(n)]
    weights = [draw(st.sampled_from([1.0, 0.5, 2.0])) for _ in range(n)]
    d = dataset_from_rows("p", [f"f{x}" for x in range(len(kinds))], rows, labels, weights=weights)
    return d, draw(st.sampled_from([0.3, 0.7, 1.0])), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(pipeline_inputs())
def test_folds_filter_outputs_and_discretized_data_are_valid(case):
    from valsel import ExperimentConfig, compute_stats, discretize
    from valsel.evaluate import FILTERS, filter_dataset, fold_splits

    d, eps, seed = case
    d._validate()
    for method in discretize.METHODS:
        discretize.apply(discretize.fit(d, method, 3), d)._validate()
    d = discretize.apply(discretize.fit(d, "frequency", 3), d)
    rows = d.instances
    for _, train, test in fold_splits(d, 2, seed):
        d.with_instances(rows[i] for i in train)._validate()
        d.with_instances(rows[i] for i in test)._validate()
    observed = any(z != MISSING for inst in rows for z in inst.slots)
    for name, flt in FILTERS.items():
        if flt.needs_stats and not observed:
            continue  # compute_stats rejects a dataset with no observed value
        cfg = ExperimentConfig(
            disc_method="none", method=name, epsilon=eps, folds=2,
            columns=(d.features[0].name,), rate=0.4, fraction=0.5,
        )
        stats = compute_stats(d) if flt.needs_stats else None
        filter_dataset(d, cfg, seed, stats)._validate()


def test_with_instances_checks_every_row_it_does_not_own(samples):
    rows = list(samples.instances)
    inst = rows[1]
    assert samples.with_instances(rows[::-1]) == Dataset(
        samples.features, rows[::-1], samples.labels, samples.name
    )
    bad = [
        Instance((len(samples.features[0].values),) + inst.slots[1:], inst.label),
        Instance(inst.slots, len(samples.labels)),
        Instance(inst.slots, inst.label, -1.0),
        Instance(inst.slots[1:], inst.label),
    ]
    for foreign in bad:
        for given_rows in ([foreign], rows + [foreign], [foreign] + rows):
            with pytest.raises(DataError):
                samples.with_instances(given_rows)
