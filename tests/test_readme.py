"""The README's examples run against the code: its Python block executes, and
each of its JSON configs loads through `config_from_dict`."""

import json
import re
from pathlib import Path

import pytest

from gpip.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_python_example_runs(capsys):
    (source,) = _blocks("python")
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("index, scenario", [(0, "link"), (1, "system")])
def test_json_examples_are_valid_configs(index, scenario):
    blocks = _blocks("json")
    assert len(blocks) == 2
    assert config_from_dict(json.loads(blocks[index])).scenario == scenario
