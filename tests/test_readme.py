"""The README's documented Python API runs as written, and its commands
use only flags that the commands have."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

from conftest import DATA
from rfplan.cli import main

README = Path(__file__).parents[1] / "README.md"


def _library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs(tmp_path, monkeypatch, capsys):
    rv = main(["train", "--data", str(DATA / "demo.csv"),
               "--schema", str(DATA / "demo_schema.json"),
               "--out", str(tmp_path / "model.json"), "--trees", "5", "--seed", "0"])
    assert rv == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_use_block(), str(README), "exec"), {})
    assert capsys.readouterr().out == "solved 6.0 ['balance:0->1']\n"


def test_readme_action_catalog_example_parses(tmp_path):
    from bisect import bisect_right

    from rfplan.discretize import build_partitions
    from rfplan.forest import restore
    from rfplan.sas_core import parse_action_spec

    rv = main(["train", "--data", str(DATA / "demo.csv"),
               "--schema", str(DATA / "demo_schema.json"),
               "--out", str(tmp_path / "model.json"), "--trees", "5", "--seed", "0"])
    assert rv == 0
    table = build_partitions(restore(tmp_path / "model.json"))
    text = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    library = parse_action_spec(text, table)
    shown = {a.id: [(t.var, t.frm, t.to) for t in a.transitions] for a in library}
    cell_1200 = bisect_right(table.thresholds[2], 1200.0)
    assert shown == {
        "deposit": [(2, 0, 1)],
        "loyal-deposit": [(0, 1, 1), (2, cell_1200, 2)],
        "visit-more": [(1, None, 1)],
    }


def _readme_commands():
    """Each ``rfplan <command> ...`` line of the README's shell blocks as its
    arguments, continuation lines joined and quotes and comments honoured."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            args = shlex.split(line, comments=True)
            if args[:1] == ["rfplan"]:
                yield args[1:]


def test_readme_commands_use_existing_flags(capsys):
    commands = list(_readme_commands())
    assert {c[0] for c in commands} == {"train", "partitions", "preprocess", "plan", "greedy",
                                        "oracle", "export-wcnf", "bench"}
    for command, *args in commands:
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out
        for flag in (a for a in args if a.startswith("-")):
            assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", usage), (command, flag)
