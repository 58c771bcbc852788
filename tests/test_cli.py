"""Command line front end: config resolution, subcommands, exit codes."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import valsel
from valsel import (DISCRETIZED, MISSING, ConfigError, load_arff, load_csv, load_dataset,
                    removal_counts, save_dataset)
from valsel.cli import _build_parser, _parse_epsilon, main
from valsel.discretize import DiscretizationSpec

from conftest import random_dataset, separable_dataset

# Child interpreters import the valsel this process imported, installed or from src/.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(valsel.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "valsel.cli", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def arff_input(tmp_path):
    path = tmp_path / "sep.arff"
    save_dataset(separable_dataset(7, n=40, noise=0.0), path)
    return path


@pytest.fixture()
def numeric_csv(tmp_path):
    lines = ["a,b,class"]
    for i in range(24):
        lines.append(f"{i * 2.5},{'u' if i % 2 else 'v'},{'pos' if i >= 12 else 'neg'}")
    path = tmp_path / "numbers.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# exit codes and config resolution
# ---------------------------------------------------------------------------


def test_exit_codes(arff_input, tmp_path):
    ok, _, _ = run_cli(
        "filter", "--input", str(arff_input), "--method", "none",
        "--disc-method", "none", "--output", str(tmp_path / "out.arff"),
    )
    assert ok == 0
    missing, _, err = run_cli(
        "filter", "--input", str(tmp_path / "nope.arff"), "--method", "none",
        "--disc-method", "none", "--output", str(tmp_path / "out2.arff"),
    )
    assert missing == 1 and "data error" in err
    bad_value, _, err = run_cli(
        "filter", "--input", str(arff_input), "--method", "pvs", "--epsilon", "0",
        "--disc-method", "none", "--output", str(tmp_path / "out3.arff"),
    )
    assert bad_value == 2 and "config error" in err
    bad_flag, _, err = run_cli("filter", "--method", "psychic")
    assert bad_flag == 2  # argparse rejections count as config errors


@pytest.mark.parametrize("suffix", [".csv", ".arff"])
def test_input_that_is_not_utf8_exits_1_without_a_traceback(tmp_path, suffix):
    bad = tmp_path / f"bad{suffix}"
    head = b"a,class\n" if suffix == ".csv" else b"@relation r\n@attribute class {x}\n@data\n"
    bad.write_bytes(head + b"caf\xe9\n")
    out = ["--output", str(tmp_path / "o.arff")]
    for command in (["discretize", *out], ["filter", *out], ["experiment", "--folds", "2"]):
        rc, _, err = run_cli(*command, "--input", str(bad))
        assert rc == 1, err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err


def test_config_file_that_is_not_utf8_exits_2_without_a_traceback(arff_input, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"method=none\n# caf\xe9\n")
    rc, _, err = run_cli(
        "filter", "--config", str(cfg), "--input", str(arff_input),
        "--output", str(tmp_path / "o.arff"),
    )
    assert rc == 2 and "config error" in err and "not UTF-8 text" in err
    assert "Traceback" not in err


def test_filter_requires_output(arff_input):
    code = main(["filter", "--input", str(arff_input), "--method", "none",
                 "--disc-method", "none"])
    assert code == 2
    assert main(["discretize", "--input", str(arff_input), "--disc-method", "none"]) == 2
    assert main(["experiment", "--method", "none", "--disc-method", "none"]) == 2


def test_output_and_knobs_are_checked_before_the_input_is_read(tmp_path, capsys):
    absent = str(tmp_path / "absent.csv")
    out = str(tmp_path / "out.arff")
    assert main(["discretize", "--input", absent]) == 2
    assert capsys.readouterr().err == "config error: discretize needs --output\n"
    assert main(["filter", "--input", absent]) == 2
    assert capsys.readouterr().err == "config error: filter needs --output\n"
    assert main(["filter", "--input", absent, "--method", "pvs", "--epsilon", "0",
                 "--output", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "epsilon" in err
    assert main(["filter", "--input", absent, "--output", out]) == 1
    assert capsys.readouterr().err.startswith("data error:")

    bogus_entropy, gini = tmp_path / "bogus.cfg", tmp_path / "gini.cfg"
    bogus_entropy.write_text("dataset_entropy = bogus\n", encoding="utf-8")
    gini.write_text("iota = gini\n", encoding="utf-8")
    stats_out = ["--stats-out", str(tmp_path / "stats.txt")]
    # each knob a command reads is a config error before the absent input is opened
    for argv, word in [
        (["discretize", "--bins", "0", "--output", out], "bins"),
        (["discretize", "--bins", "1000000000", "--output", out], "bins"),
        (["discretize", "--disc-method", "none", "--bins", "abc", "--output", out], "bins"),
        (["filter", "--bins", "0", "--method", "none", "--output", out], "bins"),
        (["filter", "--method", "reservoir", "--fraction", "2", "--output", out], "fraction"),
        (["filter", "--method", "random_value", "--rate", "5", "--output", out], "rate"),
        (["filter", "--method", "misclassified", "--cf", "0", "--output", out], "cf"),
        (["filter", "--method", "pvs", "--config", str(bogus_entropy), "--output", out],
         "dataset_entropy"),
        (["filter", "--method", "none", "--epsilon", "0", *stats_out, "--output", out],
         "epsilon"),
        (["filter", "--method", "none", "--config", str(gini), *stats_out, "--output", out],
         "gini"),
        (["experiment", "--cf", "0"], "cf"),
        (["experiment", "--min-leaf", "0"], "min_leaf"),
        (["experiment", "--learner", "rules", "--prune-fraction", "1"], "prune_fraction"),
        (["experiment", "--method", "reservoir", "--fraction", "2"], "fraction"),
        (["experiment", "--method", "random_value", "--rate", "5"], "rate"),
        (["experiment", "--method", "pvs", "--config", str(bogus_entropy)], "dataset_entropy"),
        (["experiment", "--method", "pvs_plus", "--epsilon", "0.5..1", "--config", str(gini)],
         "gini"),
    ]:
        assert main([*argv, "--input", absent]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and word in err, (argv, err)
    # a knob the command does not read stays unchecked, so the absent input is what fails
    for argv in [
        ["filter", "--method", "none", "--cf", "0", "--fraction", "2", "--output", out],
        ["filter", "--method", "reservoir", "--rate", "5", "--config", str(bogus_entropy),
         "--output", out],
        ["experiment", "--method", "none", "--prune-fraction", "1", "--epsilon", "7"],
        ["experiment", "--learner", "rules", "--cf", "0"],
    ]:
        assert main([*argv, "--input", absent]) == 1, argv
        assert capsys.readouterr().err.startswith("data error:")


def test_flag_text_is_read_as_the_config_file_reads_it(arff_input, capsys):
    assert main(["experiment", "--input", str(arff_input), "--bins", "abc"]) == 2
    assert capsys.readouterr().err == "config error: bad value 'abc' for config key 'bins'\n"
    assert main(["experiment", "--input", str(arff_input), "--epsilon", "0.1..x"]) == 2
    assert capsys.readouterr().err == "config error: bad value 'x' for config key 'epsilon'\n"


def test_every_flag_has_a_help_line_and_config_keys_show_their_defaults():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub_parser in sub.choices.items():
        for action in sub_parser._actions:
            assert action.help, (command, action.option_strings)
    experiment_help = " ".join(sub.choices["experiment"].format_help().split())
    for shown in ["(default frequency)", "(default pvs_plus)", "(default 0.5)", "(default no)",
                  "(default yes)", "(default 10)", "(default last)"]:
        assert shown in experiment_help, shown


def test_config_file_matches_flags(arff_input, tmp_path):
    settings = {
        "input": str(arff_input),
        "method": "pvs",
        "epsilon": "0.6",
        "seed": "3",
        "repeats": "2",
        "folds": "4",
        "disc_method": "none",
        "learner": "rules",
    }
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# comment line\n; another comment\n\n"
        + "".join(f"{k} = {v}\n" for k, v in settings.items()),
        encoding="utf-8",
    )
    from_file = tmp_path / "a.json"
    from_flags = tmp_path / "b.json"
    assert main(["experiment", "--config", str(conf), "--report", str(from_file)]) == 0
    assert main([
        "experiment", "--input", str(arff_input), "--method", "pvs",
        "--epsilon", "0.6", "--seed", "3", "--repeats", "2", "--folds", "4",
        "--disc-method", "none", "--learner", "rules", "--report", str(from_flags),
    ]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_flags_override_config_file(arff_input, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"input={arff_input}\nmethod=pvs\nepsilon=0.9\ndisc_method=none\n"
        "repeats=1\nfolds=4\n",
        encoding="utf-8",
    )
    report = tmp_path / "r.json"
    code = main(["experiment", "--config", str(conf), "--epsilon", "0.3",
                 "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["config"]["epsilon"] == 0.3


def test_config_file_rejects_unknown_and_bad_values(arff_input, tmp_path, capsys):
    junk = tmp_path / "junk.conf"
    junk.write_text("junk=1\n", encoding="utf-8")
    assert main(["experiment", "--config", str(junk), "--input", str(arff_input)]) == 2
    bad = tmp_path / "bad.conf"
    bad.write_text("epsilon=abc\n", encoding="utf-8")
    assert main(["experiment", "--config", str(bad), "--input", str(arff_input)]) == 2
    shapeless = tmp_path / "shapeless.conf"
    shapeless.write_text("this line has no equals\n", encoding="utf-8")
    assert main(["experiment", "--config", str(shapeless)]) == 2
    # a file that is missing, or a directory, cannot be read: a config error too
    folder = tmp_path / "folder.cfg"
    folder.mkdir()
    for unreadable in (tmp_path / "nope.cfg", folder):
        capsys.readouterr()
        assert main(["filter", "--config", str(unreadable), "--input", str(arff_input)]) == 2
        err = capsys.readouterr().err
        assert "config error: cannot read config file: [Errno" in err and unreadable.name in err


def test_epsilon_range_parsing():
    assert _parse_epsilon("0.5", 0.1) == [0.5]
    assert _parse_epsilon("0.1..0.3", 0.1) == pytest.approx([0.1, 0.2, 0.3])
    assert _parse_epsilon("0.8..1.0", 0.1) == pytest.approx([0.8, 0.9, 1.0])
    with pytest.raises(ConfigError):
        _parse_epsilon("0.5..0.1", 0.1)
    with pytest.raises(ConfigError):
        _parse_epsilon("0.1..0.5", 0.0)
    with pytest.raises(ConfigError):
        _parse_epsilon("zero..one", 0.1)
    with pytest.raises(ConfigError):
        _parse_epsilon("abc", 0.1)
    # Points above 1 used to be clamped to 1, so the eps=1 run repeated.
    with pytest.raises(ConfigError):
        _parse_epsilon("0.9..1.2", 0.1)
    with pytest.raises(ConfigError):
        _parse_epsilon("0.5..1.0000001", 0.1)
    # A step below the 1e-10 rounding grain used to repeat points and pass
    # the upper end (135 points, 14 distinct, up to 0.5000000013).
    with pytest.raises(ConfigError):
        _parse_epsilon("0.5..0.5000000003", 1e-11)
    assert _parse_epsilon("0.5..0.5000000003", 1e-10) == [
        0.5, 0.5000000001, 0.5000000002, 0.5000000003
    ]
    for text in ("0.5..0.5000000003", "0.3..0.30000000001", "0.2..0.2"):
        for step in (1e-10, 1.5e-10, 3e-10, 0.07):
            points = _parse_epsilon(text, step)
            assert points == sorted(set(points))  # ascending, no repeats
            assert points[0] >= float(text.split("..")[0]) - 1e-10
            assert points[-1] <= float(text.split("..")[1])
    # A range from -1e308 overflowed the point count (OverflowError, a traceback).
    # "0.1..1" at step 1e-6 built 900001 points before any was checked.
    for bad, step in [(text, 0.1) for text in ("nan..0.5", "0.1..nan", "-inf..0.5", "-1e308..0.5",
                                                "0..0.5", "-0.5..0.5")] + [("0.1..1", 1e-6)]:
        with pytest.raises(ConfigError):
            _parse_epsilon(bad, step)
    with pytest.raises(ConfigError, match="900001 points"):
        _parse_epsilon("0.1..1", 1e-6)
    assert len(_parse_epsilon("0.0001..1", 0.0001)) == 10_000


def test_bad_class_index_is_a_config_error(numeric_csv, tmp_path, capsys):
    out = tmp_path / "out.arff"
    code = main(["filter", "--input", str(numeric_csv), "--class-index", "foo",
                 "--method", "none", "--output", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    conf = tmp_path / "ci.conf"
    conf.write_text(f"input={numeric_csv}\nclass_index = foo\n", encoding="utf-8")
    code = main(["filter", "--config", str(conf), "--method", "none", "--output", str(out)])
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_bad_epsilon_is_a_config_error(arff_input, capsys):
    code = main(["experiment", "--input", str(arff_input), "--epsilon", "abc"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_an_infinite_epsilon_step_is_a_bad_range(arff_input, capsys):
    # 0 * inf is nan, so the sweep was [nan], refused as an epsilon rather than as a step.
    for text in ("0.1..0.2", "0.5..0.5"):
        message = f"bad epsilon range {text!r} with step inf"
        with pytest.raises(ConfigError, match=re.escape(message)):
            _parse_epsilon(text, math.inf)
    code = main(["experiment", "--input", str(arff_input), "--epsilon", "0.1..0.2",
                 "--epsilon-step", "inf"])
    assert code == 2
    assert capsys.readouterr().err == "config error: bad epsilon range '0.1..0.2' with step inf\n"


@pytest.mark.parametrize("command", ["experiment", "filter"])
def test_a_cf_too_small_for_a_normal_quantile_is_a_config_error(arff_input, tmp_path, capsys, command):
    out = tmp_path / "out.arff"
    argv = ["experiment", "--input", str(arff_input), "--method", "none", "--folds", "2",
            "--repeats", "1", "--cf", "1e-300"]
    if command == "filter":
        argv = ["filter", "--input", str(arff_input), "--method", "misclassified",
                "--cf", "1e-300", "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "too small" in err
    assert not out.exists()


def test_python_dash_m_valsel_runs_the_cli():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "valsel", *argv],
                              capture_output=True, text=True, env=CHILD_ENV)

    proc = run("--help")
    assert proc.returncode == 0 and "experiment" in proc.stdout
    proc = run("experiment")
    assert proc.returncode == 2 and proc.stderr.startswith("config error:")


SHARED_OPTIONS = {
    "-h --help": None, "--config": None, "--input": None, "--format": ("csv", "arff"),
    "--class-index": None, "--missing-token": None, "--header --no-header": None,
    "--seed": None, "--verbose": None,
    "--disc-method": ("binning", "frequency", "mdl", "none"), "--bins": None,
}
LEARNING_OPTIONS = {
    "--method": ("none", "pvs", "pvs_plus", "reservoir", "misclassified", "drop_columns",
                 "random_value"),
    "--iota": ("entropy", "infogain"), "--fraction": None, "--drop": None, "--rate": None,
    "--dataset-entropy": ("value-sum", "class"), "--learner": ("tree", "rules"),
    "--min-leaf": None, "--cf": None, "--prune-fraction": None, "--epsilon": None,
}
CLI_SURFACE = {
    "discretize": {**SHARED_OPTIONS, "--output": None, "--spec-out": None},
    "filter": {**SHARED_OPTIONS, **LEARNING_OPTIONS, "--output": None, "--audit-out": None,
               "--stats-out": None},
    "experiment": {**SHARED_OPTIONS, **LEARNING_OPTIONS, "--epsilon-step": None,
                   "--repeats": None, "--folds": None, "--fold-safe --no-fold-safe": None,
                   "--jobs": None, "--report": None, "--timings": None},
}


def test_each_subcommand_keeps_its_option_strings_and_choices():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(CLI_SURFACE)
    for command, expected in CLI_SURFACE.items():
        surface = {
            " ".join(a.option_strings): None if a.choices is None else tuple(a.choices)
            for a in sub.choices[command]._actions
        }
        assert surface == expected, command


# ---------------------------------------------------------------------------
# discretize
# ---------------------------------------------------------------------------


def test_discretize_writes_dataset_and_spec(numeric_csv, tmp_path):
    out = tmp_path / "disc.arff"
    spec_out = tmp_path / "cuts.txt"
    code = main([
        "discretize", "--input", str(numeric_csv), "--disc-method", "binning",
        "--bins", "4", "--output", str(out), "--spec-out", str(spec_out),
    ])
    assert code == 0
    d = load_dataset(out)
    a = next(f for f in d.features if f.name == "a")
    b = next(f for f in d.features if f.name == "b")
    assert a.kind == DISCRETIZED and len(a.values) == 4
    assert all("-" in v for v in a.values)  # interval tokens
    assert b.values == ("v", "u")  # non-numeric column left alone
    spec = DiscretizationSpec.load(spec_out)
    assert "a" in spec.cuts and len(spec.cuts["a"]) == 3

    again, spec_again = tmp_path / "disc2.arff", tmp_path / "cuts2.txt"
    main(["discretize", "--input", str(numeric_csv), "--disc-method", "binning",
          "--bins", "4", "--output", str(again), "--spec-out", str(spec_again)])
    assert again.read_bytes() == out.read_bytes()
    assert spec_again.read_bytes() == spec_out.read_bytes()


def test_discretize_none_writes_the_input_rows_unchanged(numeric_csv, tmp_path):
    out, spec_out = tmp_path / "same.csv", tmp_path / "cuts.json"
    code = main(["discretize", "--input", str(numeric_csv), "--disc-method", "none",
                 "--output", str(out), "--spec-out", str(spec_out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == numeric_csv.read_text(encoding="utf-8")
    assert DiscretizationSpec.load(spec_out).cuts == {}


def test_an_output_is_written_in_the_format_its_path_names(numeric_csv, tmp_path):
    disc, filtered, arff = tmp_path / "out.csv", tmp_path / "f.csv", tmp_path / "out.arff"
    for out in (disc, arff):
        assert main(["discretize", "--input", str(numeric_csv), "--disc-method", "binning",
                     "--bins", "3", "--output", str(out)]) == 0
    assert main(["filter", "--input", str(disc), "--method", "none", "--output",
                 str(filtered)]) == 0
    assert load_csv(disc) == load_csv(filtered) == load_arff(arff)
    assert len(load_csv(disc).features[0].values) == 3


@pytest.mark.parametrize("command", ["discretize", "filter"])
def test_output_format_is_not_an_option(numeric_csv, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(numeric_csv), "--output", str(tmp_path / "out.csv"),
              "--output-format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --output-format csv" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_non_finite_numeric_token_exits_1(tmp_path, capsys):
    raw = tmp_path / "nf.csv"
    raw.write_text("a,class\n1,x\n2,y\nnan,x\n3,y\ninf,x\n", encoding="utf-8")
    out, spec_out = tmp_path / "disc.arff", tmp_path / "cuts.json"
    code = main(["discretize", "--input", str(raw), "--disc-method", "frequency",
                 "--bins", "3", "--output", str(out), "--spec-out", str(spec_out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "'a'" in err and "'nan'" in err
    assert not out.exists() and not spec_out.exists()


@pytest.mark.parametrize("learner", ["tree", "rules"])
def test_class_share_that_underflows_exits_0(tmp_path, capsys, learner):
    raw = tmp_path / "u.arff"
    raw.write_text(
        "@relation u\n@attribute a {x,y}\n@attribute class {0,1}\n@data\n"
        "x,0,{2.0}\ny,1,{5e-324}\ny,1,{5e-324}\nx,0,{2.0}\n",
        encoding="utf-8",
    )
    code = main(["experiment", "--input", str(raw), "--method", "none", "--disc-method", "none",
                 "--folds", "2", "--repeats", "1", "--min-leaf", "1", "--learner", learner])
    assert code == 0
    assert capsys.readouterr().out.startswith("dataset")


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def test_filter_none_passes_data_through(arff_input, tmp_path):
    out = tmp_path / "copy.arff"
    code = main(["filter", "--input", str(arff_input), "--method", "none",
                 "--disc-method", "none", "--output", str(out)])
    assert code == 0
    assert load_dataset(out) == load_dataset(arff_input)


def test_filter_to_arff_rejects_a_token_with_a_line_break(tmp_path, capsys):
    raw = tmp_path / "nl.csv"
    raw.write_text('a,class\n"x\ny",p\nz,q\n', encoding="utf-8")
    out = tmp_path / "o.arff"
    code = main(["filter", "--input", str(raw), "--method", "none",
                 "--disc-method", "none", "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "feature 'a'" in err and "'x\\ny'" in err
    assert not out.exists()


def test_filter_reservoir_keeps_the_requested_share(tmp_path):
    src = tmp_path / "big.arff"
    save_dataset(random_dataset(1, n=100, missing_rate=0.0), src)
    out = tmp_path / "small.arff"
    code = main(["filter", "--input", str(src), "--method", "reservoir",
                 "--fraction", "0.05", "--disc-method", "none", "--output", str(out)])
    assert code == 0
    assert len(load_dataset(out).instances) == 5


def test_filter_writes_audit_and_stats(arff_input, tmp_path):
    out = tmp_path / "filtered.arff"
    audit = tmp_path / "audit.txt"
    stats = tmp_path / "stats.txt"
    code = main([
        "filter", "--input", str(arff_input), "--method", "pvs",
        "--epsilon", "0.6", "--disc-method", "none", "--output", str(out),
        "--audit-out", str(audit), "--stats-out", str(stats),
    ])
    assert code == 0
    assert "pvs" in audit.read_text()
    header = stats.read_text().splitlines()[0]
    assert "feature" in header and "p_remove" in header
    assert load_dataset(out).instances  # never empties: one column is pure


def test_filter_checks_only_the_knobs_its_method_reads(arff_input, tmp_path, capsys):
    out = tmp_path / "out.arff"
    base = ["filter", "--input", str(arff_input), "--disc-method", "none", "--output", str(out)]
    assert main([*base, "--method", "reservoir", "--fraction", "0.5", "--rate", "5"]) == 0
    assert main([*base, "--method", "none", "--epsilon", "7"]) == 0
    capsys.readouterr()
    assert main([*base, "--method", "random_value", "--rate", "5"]) == 2
    assert "config error: rate must lie in [0, 1], got 5.0" in capsys.readouterr().err
    assert main([*base, "--method", "reservoir", "--fraction", "0"]) == 2
    assert "config error: fraction must lie in (0, 1], got 0.0" in capsys.readouterr().err


#: The flags a filter method needs on the 40-row input beyond the defaults.
METHOD_FLAGS = {"drop_columns": ["--drop", "b"], "random_value": ["--rate", "0.5"]}


@pytest.mark.parametrize("method", sorted(valsel.FILTERS))
def test_filter_logs_what_it_removed_only_with_verbose(arff_input, tmp_path, method):
    argv = ["filter", "--input", str(arff_input), "--method", method, "--disc-method", "none",
            *METHOD_FLAGS.get(method, [])]
    files, errs = {}, {}
    for run, flags in (("quiet", []), ("verbose", ["--verbose"])):
        out, audit = tmp_path / f"{run}.arff", tmp_path / f"{run}.txt"
        code, _, errs[run] = run_cli(*argv, *flags, "--output", str(out), "--audit-out", str(audit))
        assert code == 0
        files[run] = out.read_bytes(), audit.read_bytes()
    assert errs["quiet"] == "" and files["verbose"] == files["quiet"]
    counts = removal_counts(load_dataset(arff_input), load_dataset(tmp_path / "verbose.arff"))
    err = errs["verbose"]
    assert err == f"INFO valsel.cli: {method} removed {counts!r}\n"
    if method == "drop_columns":
        assert err == ("INFO valsel.cli: drop_columns removed RemovalCounts(rows_deleted=0, "
                       "slots_cleared=(0, 40, 0), values_emptied=(0, 2, 0), "
                       "features_emptied=(1,))\n")


def test_csv_dialect_flags(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("pos,x,NA\nneg,y,u\npos,x,u\nneg,NA,v\n", encoding="utf-8")
    out = tmp_path / "echo.arff"
    code = main([
        "filter", "--input", str(raw), "--no-header", "--class-index", "0",
        "--missing-token", "NA", "--method", "none", "--disc-method", "none",
        "--output", str(out),
    ])
    assert code == 0
    d = load_dataset(out)
    assert sorted(d.labels) == ["neg", "pos"]
    assert len(d.features) == 2
    assert d.instances[0].slots[1] == MISSING
    assert d.instances[3].slots[0] == MISSING
    conf = tmp_path / "dialect.conf"
    conf.write_text(
        f"input = {raw}\nheader = no\nclass_index = 0\nmissing_token = NA\n", encoding="utf-8"
    )
    again = tmp_path / "again.arff"
    code = main(["filter", "--config", str(conf), "--method", "none", "--disc-method", "none",
                 "--output", str(again)])
    assert code == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("flags, option", [
    (["--class-index", "0"], "class_index"),
    (["--missing-token", "NA"], "missing_token"),
    (["--no-header"], "header"),
])
def test_csv_only_options_on_arff_input_are_a_config_error(arff_input, tmp_path, capsys,
                                                           flags, option):
    out = tmp_path / "out.arff"
    base = ["filter", "--input", str(arff_input), "--method", "none", "--disc-method", "none",
            "--output", str(out)]
    assert main([*base, *flags]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and option in err
    assert not out.exists()
    # an option at its CSV default changes nothing, so ARFF input takes it
    assert main([*base, "--class-index", "last", "--missing-token", "?", "--header"]) == 0
    assert load_dataset(out) == load_dataset(arff_input)


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_prints_table_and_writes_report(arff_input, tmp_path, capsys):
    report = tmp_path / "rep.json"
    code = main([
        "experiment", "--input", str(arff_input), "--method", "none",
        "--disc-method", "none", "--repeats", "2", "--folds", "4",
        "--report", str(report),
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].split()[:2] == ["dataset", "method"]
    assert "sep" in table
    payload = json.loads(report.read_text())
    assert payload["metrics"]["mr"] == 0.0 and payload["metrics"]["ar"] == 1.0
    assert "timings" not in payload


def test_experiment_epsilon_sweep_writes_one_report_per_value(arff_input, tmp_path, capsys):
    report = tmp_path / "sweep.json"
    code = main([
        "experiment", "--input", str(arff_input), "--method", "pvs",
        "--epsilon", "0.4..0.6", "--epsilon-step", "0.1",
        "--disc-method", "none", "--repeats", "1", "--folds", "4",
        "--report", str(report),
    ])
    assert code == 0
    for eps in ("0.4", "0.5", "0.6"):
        assert (tmp_path / f"sweep-eps{eps}.json").exists()
    assert not report.exists()  # sweeps only write the per-value files
    assert len(capsys.readouterr().out.splitlines()) == 4  # header + 3 rows
    one = json.loads((tmp_path / "sweep-eps0.4.json").read_text())
    assert one["config"]["epsilon"] == 0.4


def test_sweep_points_that_format_g_merges_get_files_and_rows_of_their_own(arff_input, tmp_path,
                                                                           capsys):
    base = ["experiment", "--input", str(arff_input), "--method", "pvs", "--disc-method", "none",
            "--repeats", "1", "--folds", "2"]
    report = tmp_path / "fine" / "r.json"
    report.parent.mkdir()
    assert main([*base, "--epsilon", "0.5..0.5000000003", "--epsilon-step", "1e-10",
                 "--report", str(report)]) == 0
    names = ["r-eps0.5.json", "r-eps0.5000000001.json", "r-eps0.5000000002.json",
             "r-eps0.5000000003.json"]
    assert sorted(p.name for p in report.parent.iterdir()) == names
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[2] for row in rows] == ["0.5", "0.5000000001", "0.5000000002",
                                                "0.5000000003"]
    # points of a coarse grid keep the names format(eps, "g") gave them
    report = tmp_path / "coarse" / "r.json"
    report.parent.mkdir()
    assert main([*base, "--epsilon", "0.1..1.0", "--epsilon-step", "0.1",
                 "--report", str(report)]) == 0
    want = [f"r-eps{eps}.json" for eps in
            ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1")]
    assert sorted(p.name for p in report.parent.iterdir()) == sorted(want)
    assert [row.split()[2] for row in capsys.readouterr().out.splitlines()[1:]] == [
        name[len("r-eps"):-len(".json")] for name in want]


@pytest.mark.parametrize("method", ["reservoir", "none", "misclassified"])
def test_epsilon_sweep_needs_a_method_that_reads_epsilon(arff_input, tmp_path, capsys, method):
    before = sorted(tmp_path.iterdir())
    code = main([
        "experiment", "--input", str(arff_input), "--method", method,
        "--epsilon", "0.1..1.0", "--disc-method", "none", "--report", str(tmp_path / "r.json"),
    ])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and "reads no epsilon" in err
    assert sorted(tmp_path.iterdir()) == before
    # one point is not a sweep, so it runs
    assert main([
        "experiment", "--input", str(arff_input), "--method", method, "--epsilon", "0.5..0.5",
        "--disc-method", "none", "--repeats", "1", "--folds", "4",
    ]) == 0


def test_learner_and_iota_flags_reach_the_report(arff_input, tmp_path):
    report = tmp_path / "r.json"
    code = main([
        "experiment", "--input", str(arff_input), "--method", "pvs",
        "--iota", "infogain", "--learner", "rules", "--epsilon", "0.9",
        "--disc-method", "none", "--repeats", "1", "--folds", "4",
        "--report", str(report),
    ])
    assert code == 0
    cfg = json.loads(report.read_text())["config"]
    assert cfg["iota"] == "infogain"
    assert cfg["learner"]["kind"] == "rules"


def test_output_dir_env_var_reroots_relative_paths(arff_input, tmp_path, monkeypatch):
    outdir = tmp_path / "outs"
    outdir.mkdir()
    monkeypatch.setenv("VALSEL_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    code = main(["filter", "--input", str(arff_input), "--method", "none",
                 "--disc-method", "none", "--output", "rel.arff"])
    assert code == 0
    assert (outdir / "rel.arff").exists()
    assert not (tmp_path / "rel.arff").exists()
    # absolute paths are left alone
    absolute = tmp_path / "abs.arff"
    code = main(["filter", "--input", str(arff_input), "--method", "none",
                 "--disc-method", "none", "--output", str(absolute)])
    assert code == 0
    assert absolute.exists()
    assert not (outdir / "abs.arff").exists()


def test_an_infinite_weight_exits_1_instead_of_reporting_nan(tmp_path, capsys):
    raw = tmp_path / "inf.arff"
    rows = "".join(f"{'xy'[i % 2]},{'pn'[i % 3 == 0]}\n" for i in range(11))
    raw.write_text("@relation w\n@attribute a {x,y}\n@attribute class {p,n}\n@data\n"
                   + rows + "y,n,{inf}\n", encoding="utf-8")
    assert main(["experiment", "--input", str(raw), "--method", "pvs", "--folds", "2",
                 "--repeats", "1", "--epsilon", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "data error: instance 11 has infinite weight\n"
    assert main(["filter", "--input", str(raw), "--output", str(tmp_path / "o.arff"),
                 "--stats-out", str(tmp_path / "stats.txt")]) == 1
    assert "infinite weight" in capsys.readouterr().err
    assert not (tmp_path / "stats.txt").exists()


@pytest.mark.parametrize("learner", ["tree", "rules"])
def test_fold_safe_discretizes_only_what_whole_dataset_mode_does(tmp_path, capsys, monkeypatch,
                                                                 learner):
    fitted = []
    fit = valsel.discretize.fit
    monkeypatch.setattr(valsel.discretize, "fit",
                        lambda *args: fitted.append(fit(*args)) or fitted[-1])
    lines = ["a,b,c,class"]
    for i in range(60):
        a = "abc" if i == 7 else f"{i * 1.5}"
        lines.append(f"{a},{'uv'[i % 2]},{i % 7},{'pos' if i >= 30 else 'neg'}")
    raw = tmp_path / "mixed.csv"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reports = {}
    for mode in ("--no-fold-safe", "--fold-safe"):
        reports[mode] = tmp_path / f"r{mode}.json"
        assert main(["experiment", "--input", str(raw), mode, "--learner", learner,
                     "--method", "pvs", "--folds", "3", "--repeats", "1",
                     "--report", str(reports[mode])]) == 0, capsys.readouterr().err
    # 'a' holds a token that is not a number, so neither mode cuts it; 'c' is cut in both
    assert len(fitted) == 1 + 3
    assert all(set(spec.cuts) == {"c"} for spec in fitted)
