"""The documented public API: exported names and the README library example."""

import pathlib
import re

import pathenum

README = pathlib.Path(__file__).parent.parent / "README.md"


def _library_block() -> list:
    text = README.read_text()
    section = text[text.index("## Library"):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def test_public_api_matches_readme():
    for name in pathenum.__all__:
        assert hasattr(pathenum, name), name

    # each `expression  # result` line must print as its comment
    namespace = {}
    checked = 0
    for line in _library_block():
        code, sep, expected = line.partition("  # ")
        if not sep:
            exec(line, namespace)
            continue
        assert str(eval(code, namespace)) == expected.strip(), line
        checked += 1
    assert checked >= 5
