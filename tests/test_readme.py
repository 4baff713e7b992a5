"""The README's library sketch and CLI block run as written."""
import json
import re
import shlex
from pathlib import Path

import pytest

from lambdaloop import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # The one print: the warm preset's transmission, a single float.
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and float(printed[0]) > 0.0


def _cli_commands() -> list:
    """The argv of each command in the first fenced block under ## CLI,
    with its backslash continuations joined and the program name
    dropped."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section,
                      flags=re.MULTILINE | re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


CLI_COMMANDS = _cli_commands()


def test_cli_block_covers_every_mode():
    assert sorted(argv[0] for argv in CLI_COMMANDS) == sorted(cli.MODES)


@pytest.mark.parametrize("argv", CLI_COMMANDS,
                         ids=[argv[0] for argv in CLI_COMMANDS])
def test_cli_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    out = argv[argv.index("--out") + 1]
    assert (tmp_path / f"{out}.csv").is_file()
    sidecar = json.loads((tmp_path / f"{out}.json").read_text())
    assert sidecar["diagnostics"]["mode"] == argv[0]
