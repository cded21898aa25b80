"""README stays honest: every CLI line runs and every grammar example parses."""

import json
import shlex
import warnings
from pathlib import Path

import pytest

from valdiv.cli import main
from valdiv.grammar import parse_algebra, parse_field, parse_profile, parse_series, parse_tower

README = (Path(__file__).parents[1] / "README.md").read_text()


def _block(heading):
    """Lines of the first fenced block after a heading."""
    return README.split(heading, 1)[1].split("```\n", 2)[1].splitlines()


def _cli_lines():
    for line in _block("## CLI"):
        argv = shlex.split(line)[1:]
        if "1|2|3" in argv:
            for number in "123":
                yield [number if arg == "1|2|3" else arg for arg in argv]
        else:
            yield argv


@pytest.mark.parametrize("argv", list(_cli_lines()), ids=" ".join)
def test_readme_cli_line_runs(argv, capsys):
    assert main(argv) == 0
    assert "error" not in json.loads(capsys.readouterr().out)


PARSERS = {
    "field": parse_field,
    "tower": parse_tower,
    "profile": parse_profile,
    "algebra": parse_algebra,
    "series": lambda text: parse_series(text, parse_tower("F5((t))")),
}


def test_readme_grammar_examples_parse():
    examples = []
    for line in _block("### Description grammar"):
        kind, sep, rest = line.partition(":=")
        if sep:
            examples.append((kind.strip(), rest.split("#")[0]))
        else:  # a continuation line: "| more examples"
            examples.append((examples[-1][0], line.split("#")[0]))
    assert {kind for kind, _ in examples} == set(PARSERS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Q moduli: irreducibility is trusted
        for kind, alternatives in examples:
            for text in alternatives.split("|"):
                if text.strip():
                    PARSERS[kind](text.strip())
