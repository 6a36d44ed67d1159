"""README examples: each Python block runs, and the game CSV sample is what
its command prints."""
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


def test_game_csv_sample_is_the_output(capsys):
    position = next(i for i, (lang, body) in enumerate(BLOCKS)
                    if lang == "sh" and body.startswith("instaqc game"))
    argv = shlex.split(BLOCKS[position][1].replace("\\\n", " "))[1:]
    sample = BLOCKS[position + 1][1].splitlines()
    assert sample[-1] == "..."
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[:len(sample) - 1] == sample[:-1]
