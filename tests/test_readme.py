"""The README's command-line examples run as written.

The four JSON file formats in the README are written out under the names
its commands use, and every ``arrtwist`` command of its shell examples must
exit 0.  The README's presentation is the commutator presentation of Z^4,
the fundamental group of the complement of its five generic lines, so
``crosscheck --presentation`` compares its Fox homology with the Koszul
route.
"""

import re
import shlex
from pathlib import Path

import pytest

from arrtwist.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _commands():
    out = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("arrtwist "):
                out.append(line.strip())
    return out


COMMANDS = _commands()


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    arrangement, presentation, chain, tower = _blocks("json")
    for name, text in (
        ("a.json", arrangement),
        ("p.json", presentation),
        ("c1.json", chain),
        ("c2.json", chain),
        ("t.json", tower),
    ):
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


def test_readme_has_the_examples():
    assert len(_blocks("json")) == 4
    assert len(COMMANDS) >= 14
    assert any(c.startswith("arrtwist crosscheck") for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_runs(readme_files, capsys, command):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0, out
