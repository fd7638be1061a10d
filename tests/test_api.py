"""The documented public API: exported names and the README examples."""

import pathlib
import re
import shlex

import pathenum
from pathenum import cli

README = pathlib.Path(__file__).parent.parent / "README.md"


def _block(heading: str, lang: str) -> list:
    text = README.read_text()
    section = text[text.index(heading):]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def test_public_api_matches_readme():
    for name in pathenum.__all__:
        assert hasattr(pathenum, name), name

    # each `expression  # result` line must print as its comment
    namespace = {}
    checked = 0
    for line in _block("## Library", "python"):
        code, sep, expected = line.partition("  # ")
        if not sep:
            exec(line, namespace)
            continue
        assert str(eval(code, namespace)) == expected.strip(), line
        checked += 1
    assert checked >= 5


def test_command_line_block_matches_readme(capsys):
    # every command runs and exits 0; a `command  # output` line prints its comment
    checked = 0
    for line in _block("## Command line", ""):
        command, sep, expected = line.partition("  # ")
        argv = shlex.split(command)
        assert argv[0] == "pathenum", line
        assert cli.main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if sep:
            assert out == expected.strip() + "\n", line
            checked += 1
    assert checked >= 4
