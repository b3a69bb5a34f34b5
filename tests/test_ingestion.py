"""Exit code and exact stderr of ``main`` on malformed inputs.

``data/ingestion_cases.json`` holds a base config and sweep spec and one case
per malformed input. A case edits the base config (``set`` assigns dotted
paths, then ``drop`` deletes them) or gives the file text outright
(``config_text``, ``sweep_text``); ``args`` is the subcommand and its flags.
The config is written as ``json.dumps(config, indent=2)``, so the recorded
line anchors follow that layout.
"""

import copy
import json
import re
from pathlib import Path

import pytest

import sfwmsim.cli
from sfwmsim.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "ingestion_cases.json")
                    .read_text(encoding="utf-8"))


def _config_text(case) -> str:
    if "config_text" in case:
        return case["config_text"]
    raw = copy.deepcopy(CORPUS["config"])
    for path, value in case.get("set", {}).items():
        *parents, key = path.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[key] = copy.deepcopy(value)
    for path in case.get("drop", []):
        *parents, key = path.split(".")
        node = raw
        for part in parents:
            node = node[part]
        del node[key]
    return json.dumps(raw, indent=2)


def _unreachable(*args, **kwargs):
    raise AssertionError("a malformed input reached evaluation")


@pytest.mark.parametrize("case", CORPUS["cases"], ids=[c["id"] for c in CORPUS["cases"]])
def test_malformed_input_exit_code_and_stderr(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(sfwmsim.cli, "_evaluate", _unreachable)
    config = tmp_path / "config.json"
    config.write_text(_config_text(case), encoding="utf-8")
    command, *flags = case["args"]
    argv = [command, "--config", str(config)]
    if command == "sweep":
        sweep = tmp_path / "sweep.json"
        sweep.write_text(case["sweep_text"] if "sweep_text" in case
                         else json.dumps(case.get("sweep", CORPUS["sweep"]), indent=2),
                         encoding="utf-8")
        argv += ["--sweep", str(sweep)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv + flags) == case["exit"]
    assert capsys.readouterr().err == case["stderr"]
    assert not (tmp_path / "out").exists()


def test_each_violation_is_listed_once_and_in_file_order():
    for case in CORPUS["cases"]:
        lines = case["stderr"].splitlines()[1:]
        assert len(set(lines)) == len(lines), case["id"]
        anchored = [int(m[1]) for line in lines if (m := re.match(r" *line (\d+): ", line))]
        assert anchored == sorted(anchored), case["id"]
