"""README.md's examples run as written: the Python one, and each command whose output it shows."""

import re
import shlex

import pytest

import polymg.cli
from conftest import README, readme_python_blocks

# the lines each ``$ polymg ...`` block shows, by its arguments
SHOWN = dict(re.findall(r"```\n\$ polymg (.*?)\n(.*?)```", README.read_text(), flags=re.S))


def test_readme_python_example_runs(capsys):
    blocks = readme_python_blocks()
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    factor, _, bound = capsys.readouterr().out.split()
    assert 0.0 < float(factor) <= float(bound)


@pytest.mark.parametrize("args", ["opt-poly --k 2", "gamma-table --k 1..5",
                                  "bounds --C 2,8 --k 1..3"])
def test_readme_command_prints_what_it_shows(args, capsys):
    # a block that ends in "..." shows the first rows only
    assert polymg.cli.main(shlex.split(args)) == 0
    expected = SHOWN[args].splitlines()
    printed = capsys.readouterr().out.splitlines()
    if expected[-1] == "...":
        expected = expected[:-1]
        printed = printed[:len(expected)]
    assert printed == expected
