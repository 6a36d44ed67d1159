"""README examples: each Python block runs, and the teleport JSON and game
CSV samples are what their commands print."""
import re
import shlex
from pathlib import Path

import pytest

from instaqc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```(\w*)\n(.*?)```", README, re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _command_and_sample(command):
    """argv of the sh block that starts with `command`, and the block after it."""
    position = next(i for i, (lang, body) in enumerate(BLOCKS)
                    if lang == "sh" and body.startswith(command))
    argv = shlex.split(BLOCKS[position][1].replace("\\\n", " "))[1:]
    return argv, BLOCKS[position + 1]


def test_teleport_json_sample_is_the_output(capsys):
    argv, (lang, sample) = _command_and_sample("instaqc teleport")
    assert lang == "json"
    assert main(argv) == 0
    assert capsys.readouterr().out == sample


def test_game_csv_sample_is_the_output(capsys):
    argv, (_, sample) = _command_and_sample("instaqc game")
    sample = sample.splitlines()
    assert sample[-1] == "..."
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[:len(sample) - 1] == sample[:-1]
