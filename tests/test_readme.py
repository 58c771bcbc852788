"""The README's Python quickstart runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from valsel import save_dataset

from conftest import separable_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    quickstart = text[text.index("## Python quickstart"):]
    code = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    save_dataset(separable_dataset(3, n=120, noise=0.1), tmp_path / "data.arff")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "instances kept" in out and "nodes" in out
