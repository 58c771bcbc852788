"""The CLI exits 0, 1 or 2 on any input file, never with a traceback.

Byte-level mutations of a small seed ARFF and CSV (invalid UTF-8, stray
quotes, braces, commas, '%' and line breaks) go through in-process
valsel.cli.main for discretize, filter (pvs_plus with audit and stats)
and experiment (rules). Any exception that escapes main fails the test.
"""

from __future__ import annotations

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
