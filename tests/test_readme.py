"""The README's library sketch runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from hivewatch.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch, capsys) -> None:
    """The one Python block of the README, run in a directory holding a
    2-day synthetic trace as `trace.csv`."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert main(["synth", "--days", "2", "--seed", "42", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].epochs_run >= 1
    assert len(namespace["scores"].errors) == len(namespace["scores"].start_ts) > 0
    assert namespace["threshold"].alpha > 0
    assert isinstance(namespace["events"], list) and isinstance(namespace["swarms"], list)
