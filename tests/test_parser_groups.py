"""A run registers the commands of its own group only: everything it prints
must be what the parser of every command prints."""

import pytest

from cmlat import cli

COMMANDS = {
    "lattice": ("check", "make"),
    "cm": ("check", "power", "extend", "accompany"),
    "randset": ("void", "invert", "power-exists", "union", "poisson", "dist"),
    "scan": ("s-set", "multi-interval", "schur"),
    "approx": ("psi",),
    "cmseq": ("hankel",),
}


def _cases():
    yield ["--help"]
    yield ["bogus"]
    yield ["bogus", "--help"]
    yield []
    for group, commands in COMMANDS.items():
        yield [group, "--help"]
        yield [group]
        yield [group, "bogus"]
        yield [group, commands[0], "--bogus"]
        for command in commands:
            yield [group, command, "--help"]


def _run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _commands(parser):
    """Each group of ``parser`` and the names of the commands it registered."""
    groups = parser._subparsers._group_actions[0].choices
    return {name: tuple(group._subparsers._group_actions[0].choices) for name, group in groups.items()}


def test_a_group_registers_its_commands_alone():
    assert _commands(cli.build_parser()) == COMMANDS
    assert _commands(cli.build_parser("bogus")) == COMMANDS
    for group in COMMANDS:
        want = {name: commands if name == group else () for name, commands in COMMANDS.items()}
        assert _commands(cli.build_parser(group)) == want


@pytest.mark.parametrize("argv", list(_cases()), ids=lambda argv: " ".join(argv) or "no arguments")
def test_group_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    got = _run(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda group=None: full())
    want = _run(capsys, argv)
    assert got == want
    assert got[2] in (0, 2)
