"""Command line front end: config resolution, subcommands, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from valsel import DISCRETIZED, MISSING, ConfigError, load_dataset, save_dataset
from valsel.cli import _parse_epsilon, main
from valsel.discretize import DiscretizationSpec

from conftest import random_dataset, separable_dataset


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "valsel.cli", *argv],
        capture_output=True,
        text=True,
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


def test_filter_requires_output(arff_input):
    code = main(["filter", "--input", str(arff_input), "--method", "none",
                 "--disc-method", "none"])
    assert code == 2


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


def test_config_file_rejects_unknown_and_bad_values(arff_input, tmp_path):
    junk = tmp_path / "junk.conf"
    junk.write_text("junk=1\n", encoding="utf-8")
    assert main(["experiment", "--config", str(junk), "--input", str(arff_input)]) == 2
    bad = tmp_path / "bad.conf"
    bad.write_text("epsilon=abc\n", encoding="utf-8")
    assert main(["experiment", "--config", str(bad), "--input", str(arff_input)]) == 2
    shapeless = tmp_path / "shapeless.conf"
    shapeless.write_text("this line has no equals\n", encoding="utf-8")
    assert main(["experiment", "--config", str(shapeless)]) == 2


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
    for bad in ("nan..0.5", "0.1..nan", "-inf..0.5"):
        with pytest.raises(ConfigError):
            _parse_epsilon(bad, 0.1)


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
                 "--output", str(out), "--output-format", "csv", "--spec-out", str(spec_out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == numeric_csv.read_text(encoding="utf-8")
    assert DiscretizationSpec.load(spec_out).cuts == {}


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


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------


def test_filter_none_passes_data_through(arff_input, tmp_path):
    out = tmp_path / "copy.arff"
    code = main(["filter", "--input", str(arff_input), "--method", "none",
                 "--disc-method", "none", "--output", str(out)])
    assert code == 0
    assert load_dataset(out) == load_dataset(arff_input)


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
