"""The README's command-line and library examples run as written."""

import argparse
import configparser
import re
import shlex
from pathlib import Path

import pytest

from qfd.cli import _KEYS, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """Arguments of every `qfd` line in the README's sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["qfd"]:
                commands.append(words[1:])
    return commands


COMMANDS = readme_commands()


def resolve_only(argv: list[str]) -> bool:
    """Examples checked through --dump-config, which resolves every
    parameter and then stops: `coeffs --method all --cycles 6` runs the
    brute-force oracle on 1,885 grid points (about 2 minutes) and the
    two-preset combo sweep takes about 2 s."""
    return (argv[0] == "coeffs" and "all" in argv) or "--combos" in argv


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"coeffs", "evolve", "tdec", "sweep"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
def test_readme_command_runs(argv, tmp_path):
    argv = list(argv)
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    written = Path(argv[out])
    if resolve_only(argv):
        written = tmp_path / "resolved.ini"
        argv += ["--dump-config", str(written)]
    assert main(argv) == 0
    assert written.exists()


def test_readme_names_only_flags_the_parser_has():
    """Every --flag the README names, in a command or in the prose about
    one, is an option of some qfd subcommand (the pip install line
    aside), so a flag that is removed cannot stay documented."""
    parser = build_parser()
    subcommands = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    options = set().union(*(p._option_string_actions for p in subcommands.choices.values()))
    text = "\n".join(
        line for line in README.read_text().splitlines()
        if not line.lstrip().startswith("pip install")
    )
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert "--pts-per-cycle" in named
    assert named <= options, sorted(named - options)


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


@pytest.mark.parametrize("n", range(1, len(PYTHON_BLOCKS) + 1))
def test_readme_python_block_runs(n):
    """Python block n runs after the blocks before it, whose names the
    README's "Library use" section carries on with."""
    namespace: dict = {}
    for block in PYTHON_BLOCKS[:n]:
        exec(block, namespace)


def test_readme_config_block_round_trips(tmp_path):
    """The README's INI block is accepted as written, shows every key of
    the schema, and its dump re-ingests to a byte-identical dump."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(), flags=re.S).group(1)
    given, first, second = tmp_path / "readme.ini", tmp_path / "d1.ini", tmp_path / "d2.ini"
    given.write_text(block)
    assert main(["tdec", "--config", str(given), "--dump-config", str(first)]) == 0
    assert main(["tdec", "--config", str(first), "--dump-config", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    written, dumped = configparser.ConfigParser(), configparser.ConfigParser()
    written.read_string(block)
    dumped.read(first)
    shown = {(section, key) for section in written.sections() for key in written[section]}
    assert shown == {(section, key) for section, key, *_ in _KEYS}
    for section in written.sections():
        for key, text in written[section].items():
            try:
                assert float(dumped[section][key]) == float(text), key
            except ValueError:
                assert dumped[section][key] == text, key
