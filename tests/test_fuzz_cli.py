"""The CLI exits 0, 1 or 2 on any input, never with a traceback.

Byte-level mutations of a small seed ARFF and CSV (invalid UTF-8, stray
quotes, braces, commas, '%' and line breaks) go through in-process
valsel.cli.main for discretize, filter (pvs_plus with audit and stats)
and experiment (rules). So do mutations of a seed config file, and flag
values drawn from awkward numbers, ranges, names and free text. Any
exception that escapes main fails the test; argparse's own rejections
exit 2 through SystemExit. Fold and repeat counts stay small, and every
sweep step drawn is 0.1 or more or rejected, so no draw asks for hours of
work.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from valsel.cli import main

SEED_ARFF = b"""% seed input
@relation fuzz
@attribute num numeric
@attribute col {red,'dark blue',green}
@attribute class {yes,no}
@data
1.19,green,no
4.58,'dark blue',no
0.33,red,yes
2.35,green,yes
4.98,'dark blue',no
?,'dark blue',no
0.75,green,yes
4.63,'dark blue',no,{2}
3.36,red,no
4.79,red,no
0.16,'dark blue',yes
3.59,'dark blue',no
4.61,'dark blue',no
2.88,red,no
0.49,red,yes
1.29,green,yes
3.13,'dark blue',no
4.17,green,no
2.93,green,no
1.68,red,yes
4.95,green,no
3.49,'dark blue',no
4.52,green,yes
3.28,green,no
"""

SEED_CSV = b"""num,col,class
1.19,green,no
4.58,"dark, blue",no
0.33,red,yes
2.35,green,yes
4.98,"dark, blue",no
?,"dark, blue",no
0.75,green,yes
4.63,"dark, blue",no
3.36,red,no
4.79,red,no
0.16,"dark, blue",yes
3.59,"dark, blue",no
4.61,"dark, blue",no
2.88,red,no
0.49,red,yes
1.29,green,yes
3.13,"dark, blue",no
4.17,green,no
2.93,green,no
1.68,red,yes
4.95,green,no
3.49,"dark, blue",no
4.52,green,yes
3.28,green,no
"""

AWKWARD = [b"\xe9", b"\xff", b"\xc3", b"'", b'"', b"{", b"}", b"%", b",", b"?", b"\n", b"\r",
           b" ", b"\\", b"\x00", b"@", b"-", b"e", b"9"]


@st.composite
def mutated(draw, seed: bytes):
    """seed with one to four bytes replaced, inserted or deleted."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from(AWKWARD), st.binary(min_size=1, max_size=1)))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        if how == "insert" or at == len(data):
            data[at:at] = byte
        elif how == "replace":
            data[at : at + 1] = byte
        else:
            del data[at]
    return bytes(data)


def exit_codes(path, work) -> list[int]:
    out = ["--output", str(work / "out.arff")]
    commands = [
        ["discretize", *out, "--bins", "3"],
        ["filter", *out, "--method", "pvs_plus", "--bins", "3",
         "--audit-out", str(work / "audit.txt"), "--stats-out", str(work / "stats.txt")],
        ["experiment", "--learner", "rules", "--folds", "2", "--repeats", "1", "--bins", "3",
         "--epsilon", "1"],
    ]
    return [main([*argv, "--input", str(path)]) for argv in commands]


FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(mutated(SEED_ARFF))
def test_mutated_arff_never_escapes_the_exit_codes(tmp_path_factory, capsys, data):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "in.arff").write_bytes(data)
    assert set(exit_codes(work / "in.arff", work)) <= {0, 1, 2}
    capsys.readouterr()


@FUZZ
@given(mutated(SEED_CSV))
def test_mutated_csv_never_escapes_the_exit_codes(tmp_path_factory, capsys, data):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "in.csv").write_bytes(data)
    assert set(exit_codes(work / "in.csv", work)) <= {0, 1, 2}
    capsys.readouterr()


def test_the_seeds_run_clean(tmp_path, capsys):
    for name, seed in [("in.arff", SEED_ARFF), ("in.csv", SEED_CSV)]:
        (tmp_path / name).write_bytes(seed)
        assert exit_codes(tmp_path / name, tmp_path) == [0, 0, 0], capsys.readouterr().err
    capsys.readouterr()


SEED_CONFIG = b"""# fuzz seed
; every knob the pipeline reads, as text
method = pvs_plus
iota = infogain
epsilon = 0.8
bins = 3
disc_method = frequency
dataset_entropy = value-sum
learner = tree
min_leaf = 2
cf = 0.25
prune_fraction = 0.3
seed = 4
fold_safe = no
rate = 0.2
fraction = 0.5
columns = num
class_index = last
missing_token = ?
header = yes
"""


def exit_code(argv) -> int:
    """main's exit code, or argparse's when it rejects argv."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@FUZZ
@given(mutated(SEED_CONFIG))
def test_mutated_config_never_escapes_the_exit_codes(tmp_path_factory, capsys, config):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "in.arff").write_bytes(SEED_ARFF)
    (work / "run.cfg").write_bytes(config)
    given_ = ["--config", str(work / "run.cfg"), "--input", str(work / "in.arff")]
    codes = [
        exit_code(["filter", *given_, "--output", str(work / "out.arff")]),
        exit_code(["experiment", *given_, "--folds", "2", "--repeats", "1"]),
    ]
    assert set(codes) <= {0, 1, 2}
    capsys.readouterr()


AWKWARD_VALUES = [
    "", " ", "0", "-0", "-1", "1", "2", "7", "0.5", "1e-320", "1e308", "nan", "inf", "-inf",
    "x", "\xe9", "num", "col", "num,col", ",", "last", "arff", "csv", "none", "pvs", "pvs_plus",
    "random_value", "drop_columns", "reservoir", "misclassified", "tree", "rules", "mdl",
    "binning", "frequency", "infogain", "class", "0.1..0.3", "0.3..0.1", "0..1", "-1e308..1",
    "1..inf", "nan..1", "..",
]
SHARED = ["--class-index", "--missing-token", "--format", "--seed", "--bins", "--disc-method"]
LEARNING = ["--method", "--iota", "--fraction", "--drop", "--rate", "--dataset-entropy",
            "--learner", "--min-leaf", "--cf", "--prune-fraction", "--epsilon"]
FLAGS = {
    "discretize": SHARED,
    "filter": SHARED + LEARNING,
    "experiment": SHARED + LEARNING + ["--epsilon-step", "--repeats", "--folds", "--jobs"],
}


@st.composite
def flag_argv(draw):
    """A command and one to four of its flags, each with an awkward value."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1, max_size=4, unique=True))
    text = st.one_of(st.sampled_from(AWKWARD_VALUES), st.text(max_size=6))
    # free text could spell a tiny sweep step, whose millions of points are no fault
    value = {"--epsilon-step": st.sampled_from(AWKWARD_VALUES)}
    return command, [f"{flag}={draw(value.get(flag, text))}" for flag in flags]


@FUZZ
@given(flag_argv())
def test_flag_values_never_escape_the_exit_codes(tmp_path_factory, capsys, case):
    command, flags = case
    work = tmp_path_factory.mktemp("fuzz")
    (work / "in.arff").write_bytes(SEED_ARFF)
    argv = [command, "--input", str(work / "in.arff")]
    if command == "experiment":
        argv += ["--folds", "2", "--repeats", "1", "--epsilon-step", "0.1"]
    else:
        argv += ["--output", str(work / "out.arff")]
    assert exit_code(argv + flags) in {0, 1, 2}
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_awkward_flag_value_exits_0_1_or_2(command, tmp_path, capsys):
    (tmp_path / "in.arff").write_bytes(SEED_ARFF)
    argv = [command, "--input", str(tmp_path / "in.arff")]
    if command == "experiment":
        argv += ["--folds", "2", "--repeats", "1"]
    else:
        argv += ["--output", str(tmp_path / "out.arff")]
    for flag in FLAGS[command]:
        for value in AWKWARD_VALUES:
            assert exit_code([*argv, f"{flag}={value}"]) in {0, 1, 2}, (flag, value)
    capsys.readouterr()


def test_the_seed_config_runs_clean(tmp_path, capsys):
    (tmp_path / "in.arff").write_bytes(SEED_ARFF)
    (tmp_path / "run.cfg").write_bytes(SEED_CONFIG)
    given_ = ["--config", str(tmp_path / "run.cfg"), "--input", str(tmp_path / "in.arff")]
    assert exit_code(["experiment", *given_, "--folds", "2", "--repeats", "1"]) == 0
    assert exit_code(["filter", *given_, "--output", str(tmp_path / "o.arff")]) == 0
    capsys.readouterr()
