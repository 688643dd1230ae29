"""A seeded fuzz of the command line's inputs: every accepted command
line ends in a documented exit code, never a traceback.

Corpus terms, family formulas and modal formulas are mutated by
insertion, deletion and replacement of whole tokens, from
:data:`ALPHABET` or the text's own tokens, and a share of them is left
as it is, so that at least 40% of the lines get past the parser to a
search, a fragment verdict or a model check.  Each line runs in-process
through ``cli.main`` under ``prove``, ``entail``, ``modal``,
``fragment``, ``simplify`` or ``check-model``, with a small
``--max-steps``.  Some ``modal`` lines also run ``--verify
--oracle-size=1``, the Kripke oracle at one world included.  Exit codes
0 and 1 print the result on stdout.  Codes 2 to 4 print exactly one
``error:`` line on stderr and nothing on stdout, except a ``fragment``
rejection, which is a result: exit 3, on stdout, with nothing on stderr.
"""

import collections
import contextlib
import io
import json
import random
import re
import time

import pytest

from conftest import all_modal, family_text
from dualtab.cli import main
from dualtab.frontends.modal import render_modal
from dualtab.terms import MAX_DEPTH, MAX_NESTING, render_term
from test_cli import run_process

SEED = 20261021
LINES = 5000
# premises of the entailment encoder's fragment, one of them mutated on
# some ``entail`` lines
PREMISES = ("-r | -(s | t)", "-r | -s", "-s | -t", "-(r & s)", "-t", "-r | -s1")

# Every operator and its unicode alias, ``->`` and ``<->``, ``1;`` and
# ``;1``, NUL, a lone surrogate (what a POSIX argv makes of an
# undecodable byte) and a non-ASCII letter; and, less often, runs that
# reach MAX_NESTING and MAX_DEPTH, and one step past them.
ALPHABET = (
    "|", "&", "-", ";", "^", "~", "∪", "∩", "−", "⌣", "->", "<->", "1;", ";1",
    "(", ")", "[", "]", "<", ">", "1", "r", "s", "p", "q", "x", "y", " ", "=",
    "-r", "~p", "[r]", "<s>", "r | ", " & q", "\0", "\udcff", "é",
)
RUNS = (
    "(" * MAX_NESTING, ")" * MAX_NESTING, "-" * MAX_NESTING, "~" * MAX_NESTING,
    "(" * (MAX_NESTING + 1), "r^" + "^" * MAX_NESTING, "[r]" * MAX_NESTING,
    " | r" * (MAX_DEPTH - 1), " & p" * MAX_DEPTH, ";r" * MAX_DEPTH,
)


# A token of either grammar, or one character; a run of spaces is one.
TOKEN = re.compile(r"<->|->|[a-z][a-z0-9_]*|\s+|.", re.DOTALL)
UNMUTATED = 0.4  # the share of texts left as they are


def mutate(rng, text):
    """``text`` as it is, with probability :data:`UNMUTATED`; otherwise
    after one or two insertions, deletions or replacements of whole
    tokens, each at a random token boundary, of a random piece of
    :data:`ALPHABET`, of the text's own tokens or, one time in ten, of
    :data:`RUNS`."""
    if rng.random() < UNMUTATED:
        return text
    tokens = TOKEN.findall(text)
    own = tokens.copy()
    for _ in range(rng.choice((1, 1, 2))):
        at = rng.randint(0, len(tokens))
        roll = rng.random()
        piece = rng.choice(RUNS if roll < 0.1 else own if roll < 0.5 else ALPHABET)
        tokens[at:at + rng.choice((0, 0, 1, 1, 2))] = [piece] if rng.random() < 0.7 else []
    return "".join(tokens)


def model_texts(rng, count):
    """Model files in the exchange format over r, s and t, some of them
    mutated, some not an object or missing a part, and one nested deeper
    than the JSON decoder allows."""
    texts = ["[" * 3000 + "]" * 3000, "", "{}", "[]", '{"universe": 1}']
    for _ in range(count):
        universe = rng.sample(["x", "y", "z"], rng.randint(1, 3))
        pairs = [[a, b] for a in universe for b in universe]
        data = {
            "universe": universe,
            "relations": {name: rng.sample(pairs, rng.randint(0, len(pairs)))
                          for name in ("r", "s", "t") if rng.random() < 0.9},
            "valuation": {var: rng.choice(universe) for var in ("x", "y")},
        }
        text = json.dumps(data)
        if rng.random() < 0.2:
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice('{}[]",:0 xq') + text[at + rng.randint(0, 2):]
        texts.append(text)
    return texts


def command_lines(rng, terms, formulas, models):
    """:data:`LINES` command lines, each over a mutated text."""
    steps = lambda: f"--max-steps={rng.choice((1, 5, 30))}"  # noqa: E731
    lines = []
    for _ in range(LINES):
        command = rng.choice(("prove", "entail", "modal", "fragment", "simplify",
                              "check-model"))
        term = mutate(rng, rng.choice(terms))
        if command == "prove":
            line = ["prove", steps(), "--", term]
        elif command == "entail":
            premises = rng.sample(PREMISES, rng.randint(1, 2))
            if rng.random() < 0.5:  # the mutant is a premise, not the conclusion
                premises[0], term = mutate(rng, premises[0]), rng.choice(PREMISES)
            line = ["entail", steps(), *(f"--premise={p}" for p in premises),
                    f"--conclusion={term}"]
        elif command == "modal":
            verify = ["--verify", "--oracle-size=1"] if rng.random() < 0.3 else []
            line = ["modal", steps(), *verify, "--", mutate(rng, rng.choice(formulas))]
        elif command == "check-model":
            formula = term if rng.random() < 0.5 else f"x {term} y"
            line = ["check-model", "--", formula, rng.choice(models)]
        else:
            line = [command, "--", term]
        if command != "check-model" and rng.random() < 0.5:
            line.insert(1, "--json")
        lines.append(line)
    return lines


def test_every_mutant_ends_in_a_documented_exit_code(tmp_path, fragment_corpus):
    rng = random.Random(SEED)
    terms = [render_term(t) for t in fragment_corpus[:100]]
    formulas = [family_text(name, n) for name in ("modal_dist", "kdist", "branching",
                                                   "cycle") for n in (1, 2, 3)]
    formulas += [render_modal(f) for f in rng.sample(all_modal(3), 100)]
    models = []
    for i, text in enumerate(model_texts(rng, 20)):
        path = tmp_path / f"model{i}.json"
        path.write_text(text, encoding="utf-8")
        models.append(str(path))
    models.append(str(tmp_path / "missing.json"))
    lines = command_lines(rng, terms, formulas, models)
    codes, reached = collections.Counter(), 0
    start = time.perf_counter()
    for argv in lines:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        codes[code] += 1
        # past the parser: a search, a fragment verdict or a model check
        reached += code != 2 and argv[0] != "simplify"
        assert code in range(5), (argv, err)
        if code < 2:
            assert out, argv
        elif argv[0] == "fragment" and code == 3 and not err:
            assert out.count("\n") == 1 or argv[1] == "--json", argv
        else:
            assert (out, err[:7], err.count("\n")) == ("", "error: ", 1), (argv, err)
    elapsed = time.perf_counter() - start
    assert len(codes) == 5, codes
    assert reached >= 0.4 * LINES, codes
    assert elapsed < 5, elapsed


@pytest.mark.parametrize("argv", [
    ["prove", "--", b"r | \xff"],
    ["entail", "--premise=-r | -s", b"--conclusion=s | \xff"],
], ids=["prove", "entail"])
def test_undecodable_byte_in_a_fresh_process(argv):
    # a POSIX argv decodes an undecodable byte to a lone surrogate, which
    # the tokenizer rejects like any other unknown character
    proc = run_process("-m", "dualtab", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: unexpected character '\\udcff' at offset 4"]
