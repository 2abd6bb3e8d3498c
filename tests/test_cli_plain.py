"""The plain command-line reader against argparse.

`cli._read_plain` reads a plain command line straight into a namespace
and hands anything else to argparse. Wherever it reads one, it must build
exactly the namespace argparse builds, with nothing left over.
"""

import contextlib
import io
import random

from normtower import cli
from test_cli_fuzz import COMMANDS, SEED, mutate_argv

CASES = 4000
# one in five argvs gets one of these appended: an abbreviated option, help,
# a lone "--", a stray positional, a repeated option
TAILS = (["--form", "json"], ["-h"], ["--"], ["stray"], ["--format", "json", "--format", "text"])


def split_values(argv):
    """argv with each --k=v written as --k v."""
    return [
        part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--") else [arg])
    ]


def argparse_reads(argv):
    """vars of the namespace argparse builds from argv and its leftovers,
    or None where argparse exits (an error, or help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace, extras = cli._build_parser().parse_known_args(argv)
        except SystemExit:
            return None
    return vars(namespace), extras


def mismatches(cases=CASES, seed=SEED):
    """(argvs read directly, argvs left to argparse, the argvs where a direct
    read differs from argparse) over cases mutated argvs in both value forms."""
    rng = random.Random(seed)
    read, left, wrong = 0, 0, []
    for _ in range(cases):
        argv = mutate_argv(rng, rng.choice(list(COMMANDS)))
        if rng.random() < 0.2:
            argv += rng.choice(TAILS)
        for form in (argv, split_values(argv)):
            plain = cli._read_plain(form)
            if plain is None:
                left += 1
            else:
                read += 1
                if argparse_reads(form) != (vars(plain), []):
                    wrong.append(form)
    return read, left, wrong


def test_plain_reader_agrees_with_argparse():
    read, left, wrong = mismatches()
    assert wrong == []
    # both paths are taken, each by a large share of the argvs
    assert min(read, left) > CASES // 2, (read, left)


def test_plain_reader_leaves_the_rest_to_argparse():
    for argv in (
        [],
        ["--help"],
        ["find-prim", "--p", "2", "--n", "2"],  # not a subcommand
        ["find-prime", "--p", "2"],  # --n is required
        ["find-prime", "--p", "2", "--n"],  # --n has no value
        ["find-prime", "--p", "2", "--n", "-1"],  # "-"-led in the two-token form
        ["find-prime", "--p", "2", "--n", ""],
        ["hilbert", "--a=--", "--b", "3", "--place", "2"],
        ["find-prime", "--p", "two", "--n", "2"],
        ["find-prime", "--p", "2", "--n", "2", "--format", "xml"],
        ["find-prime", "--p", "2", "--n", "2", "--lim", "9"],  # abbreviated
        ["decompose"],
        ["decompose", "a.json", "b.json"],
        ["decompose", "-"],
    ):
        assert cli._read_plain(argv) is None, argv
    assert vars(cli._read_plain(["find-prime", "--p=2", "--n", "3", "--n=-4"])) == {
        "command": "find-prime",
        "format": "text",
        "func": cli._cmd_find_prime,
        "p": 2,
        "n": -4,
        "limit": 10**6,
    }


def test_every_subcommand_action_is_one_the_table_reads():
    # the reader takes one-value rows and the defaults argparse sets
    # unchanged: a positional with more than a help, a str default that
    # argparse would pass through a type, or any other kwarg would need the
    # reader to learn it first
    for _, _, _, rows in cli._COMMANDS:
        for flag, kwargs in (cli._FORMAT, *rows):
            assert set(kwargs) <= {"type", "choices", "required", "default", "help"}, flag
            if flag[:1] != "-":
                assert set(kwargs) <= {"help"}, flag
            assert not (isinstance(kwargs.get("default"), str) and "type" in kwargs), flag


def test_a_plain_line_builds_no_parser(capsys):
    cli._build_parser.cache_clear()
    assert cli.main(["find-prime", "--p", "2", "--n", "2"]) == 0
    assert capsys.readouterr().out == "5\n"
    assert cli._build_parser.cache_info().currsize == 0
