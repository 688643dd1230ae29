"""Command-line interface.

Commands
--------
prove TERM            decide validity of ``x TERM y``
entail                decide premises |= conclusion (--premise repeatable,
                      --conclusion required); premises and conclusion are
                      terms asserted to denote the full relation
modal FORMULA         decide validity of a modal formula via translation
check-model FORMULA MODELFILE
                      exit 0 when the model+valuation falsify the formula,
                      1 when they satisfy it
fragment TERM         report fragment membership of the simplified term
simplify TERM         print the 1-simplified form of the term

Flags: ``--json`` (machine output), ``--trace`` (stream rule applications
to stderr), ``--max-steps N``, ``--oracle-size K`` (1..4), ``--verify``
(cross-check the verdict with the independent oracles).

The command line is read from two tables, ``_COMMANDS`` and ``_OPTIONS``,
which also give the help; argparse's rules are kept.  Options come before
or after positionals; ``--name=value`` and ``--name value`` both work,
and a unique prefix abbreviates a long option (``--js``).  A flag may be
repeated, a valued option keeps its last value, and ``--premise`` keeps
every value.  An argument that begins with ``-`` is an option unless it
contains a space or is a negative number; after ``--`` every argument is
a positional.  ``-h`` or ``--help`` before ``--`` prints the help and
exits 0, unless an argument before it is already an error.  A usage
error is one line, ``error: ...``, with exit code 2.

Each command imports only the modules it runs: ``terms``, ``formulas``
and ``semantics`` for every command, ``engine`` for the commands that
search (``prove``, ``entail``, ``modal``), ``frontends.entailment`` for
``entail``, ``frontends.modal`` for ``modal`` and ``frontends.kripke``
for ``modal --verify``; a ``--verify``
that checks a proof also loads ``oracle`` and numpy.  No command loads
``argparse``, or the ``gettext`` and ``locale`` that it brings in.
Without a bytecode cache (``PYTHONDONTWRITEBYTECODE``) every process
compiles each module it imports, and that compiling is a large part of a
short command's time.

Exit codes: 0 valid / falsified (or help printed), 1 invalid / satisfied,
2 usage error, parse error or malformed input (including nesting deeper
than ``terms.MAX_NESTING``, terms, formulas or encodings deeper than
``terms.MAX_DEPTH``, and model files nested deeper than the JSON decoder
allows), 3 fragment violation, 4 resource exhausted, 5
internal error (an engine invariant fired, or any other unexpected
failure; one line, never a traceback).

Verdict JSON::

    {"verdict": "valid" | "invalid",
     "proof": <tree> | null,
     "countermodel": {"universe": [..], "relations": {name: [[a,b],..]},
                      "valuation": {var: elem}} | null,
     "stats": {"steps": int, "branches": int, "variables": int}}

Proof-tree nodes carry ``id``, ``parent``, ``children``, ``formulas``
(triples ``[left, term, right]`` with rendered terms), ``rule``,
``premise``, ``variable`` (fresh or instantiating variable of the step)
and ``closed``.  Commands that encode their input (``entail``, ``modal``)
add the encoded/translated term under ``"term"``; ``--verify`` adds
``"verified"`` (true/false/null) and, for ``modal``, the Kripke
cross-check under ``"kripke"``; ``"verify_note"`` gives the reason of each
oracle that refused the problem over its budget, joined by ``"; "``.
"""

from __future__ import annotations

import json
import os
import re
import sys
import warnings
from types import SimpleNamespace

from .errors import (BudgetExceeded, DualTabError, EmptyPremises,
                     FragmentViolation, ParseError, ResourceExhausted,
                     UnknownVariableWarning)
from .formulas import RelFormula, parse_formula
from .semantics import falsifies_branch, model_from_json, satisfies
from .terms import (fragment_check, parse_term, render_term, simplify_ones)

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_FRAGMENT = 3
EXIT_RESOURCES = 4
EXIT_INTERNAL = 5


def _trace_printer(event):
    var = f" with {event['variable']}" if event["variable"] else ""
    _write(sys.stderr, [f"[trace] {event['rule']}: {event['premise']}{var}"])


def _emit(payload, as_json, text_lines):
    """Print ``payload`` as JSON, or else the lines ``text_lines(payload)``
    makes of it; only the form printed is built."""
    _write(sys.stdout, [json.dumps(payload, indent=2, sort_keys=True)] if as_json
           else text_lines(payload))


def _write(stream, lines):
    """Print ``lines`` to ``stream``.  A reader that closes the stream
    early, as ``| head`` does, ends the output but not the command, which
    still exits with its verdict's code."""
    try:
        for line in lines:
            print(line, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the recipe of the ``signal`` module's documentation: what is left
        # goes to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _verdict_lines(payload, label=None):
    """The text form of a verdict payload, its encoded or translated term
    first under ``label``."""
    lines = [f"{label}: {payload['term']}"] if label else []
    lines.append(payload["verdict"])
    if payload["proof"] is not None:
        lines.extend(_tree_lines(payload["proof"]["nodes"]))
    else:
        lines.append(json.dumps(payload["countermodel"], sort_keys=True))
    if "verified" in payload:
        lines.append(f"verified: {payload['verified']}")
    if "verify_note" in payload:
        lines.append(f"verify_note: {payload['verify_note']}")
    stats = payload["stats"]
    lines.append(f"steps={stats['steps']} branches={stats['branches']} "
                 f"variables={stats['variables']}")
    if payload.get("kripke"):
        kripke = payload["kripke"]
        lines.append(f"kripke refuted (<= {kripke['worlds']} worlds): "
                     f"{kripke['refuted']}")
    return lines


def _tree_lines(nodes):
    """The proof tree, one line per node in depth-first order, from the
    JSON nodes and their rendered formulas."""
    lines = []
    stack = [(0, 0)]
    while stack:
        node_id, depth = stack.pop()
        node = nodes[node_id]
        formulas = ", ".join(" ".join(f) for f in node["formulas"])
        rule = f" [{node['rule']}]" if node["rule"] else ""
        closed = "  *closed*" if node["closed"] else ""
        lines.append(f"{'  ' * depth}({node_id}){rule} {{{formulas}}}{closed}")
        stack.extend((child, depth + 1) for child in reversed(node["children"]))
    return lines


def _prove_payload(term, args, extra=None):
    """Whether ``term`` is valid, and the verdict's JSON payload with
    ``extra`` and, under ``--verify``, the oracles' cross-check."""
    from .engine import Proof, run_procedure, verdict_to_json

    trace = _trace_printer if args.trace else None
    verdict = run_procedure(term, max_steps=args.max_steps, trace=trace)
    valid = isinstance(verdict, Proof)
    payload = verdict_to_json(verdict)
    if extra:
        payload.update(extra)
    if args.verify:
        payload["verified"], note = _verify(term, verdict, valid, args.oracle_size)
        if note:
            payload["verify_note"] = note
    return valid, payload


def _verify(term, verdict, valid, oracle_size):
    if valid:
        from .oracle import brute_force_countermodel  # loads numpy

        try:
            found = brute_force_countermodel(term, oracle_size)
        except BudgetExceeded as exc:
            return None, str(exc)
        return found is None, None
    memo = {}  # the branch holds the input: its pair sets are built once
    ok = falsifies_branch(verdict.model, verdict.valuation, verdict.branch, memo)
    query = RelFormula("x", term, "y")
    ok = ok and not satisfies(verdict.model, verdict.valuation, query, memo)
    return ok, None


def _exit_for(valid):
    return EXIT_VALID if valid else EXIT_INVALID


def cmd_prove(args):
    term = simplify_ones(parse_term(args.term))
    valid, payload = _prove_payload(term, args)
    _emit(payload, args.json, _verdict_lines)
    return _exit_for(valid)


def cmd_entail(args):
    from .frontends.entailment import EntailmentProblem, encode_entailment

    premises = [parse_term(t) for t in args.premise]
    conclusion = parse_term(args.conclusion)
    encoded = encode_entailment(EntailmentProblem(tuple(premises), conclusion))
    extra = {"term": render_term(encoded)}
    valid, payload = _prove_payload(encoded, args, extra)
    _emit(payload, args.json, lambda p: _verdict_lines(p, "encoded"))
    return _exit_for(valid)


def cmd_modal(args):
    from .frontends.modal import parse_modal, translate_modal

    formula = parse_modal(args.formula)
    translated = translate_modal(formula)
    extra = {"term": render_term(translated)}
    valid, payload = _prove_payload(translated, args, extra)
    if args.verify:
        from .frontends.kripke import kripke_countermodel

        worlds = min(args.oracle_size, 3)
        try:
            refutation = kripke_countermodel(formula, worlds)
        except BudgetExceeded as exc:
            payload["kripke"] = None
            notes = (payload.get("verify_note"), str(exc))
            payload["verify_note"] = "; ".join(filter(None, notes))
        else:
            payload["kripke"] = {"refuted": refutation is not None, "worlds": worlds}
            if refutation is not None and valid:
                payload["verified"] = False
    _emit(payload, args.json, lambda p: _verdict_lines(p, "translated"))
    return _exit_for(valid)


def cmd_check_model(args):
    formula = parse_formula(args.formula)
    try:
        with open(args.model_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        model, valuation = model_from_json(data)
    except RecursionError:
        _write(sys.stderr, ["error: malformed model file: "
                            "nested deeper than the JSON decoder allows"])
        return EXIT_PARSE
    except (OSError, ValueError) as exc:
        _write(sys.stderr, [f"error: malformed model file: {exc}"])
        return EXIT_PARSE
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default", UnknownVariableWarning)
            holds = satisfies(model, valuation, formula)
    except DualTabError as exc:
        _write(sys.stderr, [f"error: {exc}"])
        return EXIT_PARSE
    for warning in caught:
        _write(sys.stderr, [f"warning: {warning.message}"])
    _emit(holds, False, lambda h: ["satisfied" if h else "falsified"])
    return EXIT_INVALID if holds else EXIT_VALID


def cmd_fragment(args):
    term = simplify_ones(parse_term(args.term))
    verdict = fragment_check(term)
    payload = {
        "term": render_term(term),
        "accepted": verdict.accepted,
        "offender": render_term(verdict.offender) if verdict.offender else None,
        "clause": verdict.clause,
    }
    _emit(payload, args.json, lambda p: [
        "accepted" if p["accepted"] else f"rejected: {p['clause']}: {p['offender']}"])
    return EXIT_VALID if verdict.accepted else EXIT_FRAGMENT


def cmd_simplify(args):
    term = simplify_ones(parse_term(args.term))
    _emit({"term": render_term(term)}, args.json, lambda p: [p["term"]])
    return EXIT_VALID


def _print_help(command):
    """Print the help of ``command``, or of dualtab when it is None."""
    _write(sys.stdout, _help_lines(command))
    return EXIT_VALID


def _whole(low, high=None):
    """A reader of whole numbers from ``low`` up to ``high`` (no bound
    when None)."""
    span = f"at least {low}" if high is None else f"from {low} to {high}"

    def read(text, _):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or high is not None and value > high:
            raise ValueError(f"takes a whole number {span}, not {text!r}")
        return value
    return read


def _last(text, _):
    return text


def _gather(text, earlier):
    return [*(earlier or ()), text]


# The command line, in two tables that both reading and help use.  Each
# option by its long name: (metavar, read, default, help).  A flag has no
# metavar and reads as True; ``read(text, value so far)`` gives a valued
# option's value.  A default of None makes the option required.
_OPTIONS = {
    "premise": ("TERM", _gather, None, "a premise; give one or more"),
    "conclusion": ("TERM", _last, None, "the conclusion"),
    "json": (None, None, False, "print the result as JSON"),
    "trace": (None, None, False, "stream rule applications to stderr"),
    "max-steps": ("N", _whole(1), 1_000_000, "stop the search after N steps"),
    "oracle-size": ("K", _whole(1, 4), 3, "universe cap of the --verify "
                    "oracles, 1 to 4"),
    "verify": (None, None, False, "cross-check the verdict with the "
               "independent oracles"),
}
_SEARCH = ("json", "trace", "max-steps", "oracle-size", "verify")

# Each command by its name: (handler, positionals, options, help); the
# row for None reads what comes before the command's name.
_COMMANDS = {
    None: (_print_help, ("command",), (),
           "Dual-tableau validity prover with countermodel extraction."),
    "prove": (cmd_prove, ("term",), _SEARCH, "decide validity of a term"),
    "entail": (cmd_entail, (), ("premise", "conclusion", *_SEARCH),
               "decide whether the premises entail the conclusion"),
    "modal": (cmd_modal, ("formula",), _SEARCH, "decide validity of a modal formula"),
    "check-model": (cmd_check_model, ("formula", "model_file"), (),
                    "evaluate a formula on the model of a JSON file"),
    "fragment": (cmd_fragment, ("term",), ("json",), "check fragment membership"),
    "simplify": (cmd_simplify, ("term",), ("json",), "apply the 1-identities to a term"),
}

# argparse's reading of a negative number, which counts as a positional
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match
_HELP_NOTE = (
    "",
    "An argument that begins with '-' is an option unless it contains a",
    "space or is a negative number.  After '--' every argument is input:",
    "dualtab prove --json -- '-r'.",
)


def _help_lines(command):
    """The help of ``command``, or of dualtab when it is None."""
    _, positionals, options, text = _COMMANDS[command]
    if command is None:
        head = ["usage: dualtab COMMAND [-h] [OPTIONS] ARGUMENTS", "", text, "",
                "commands:"]
        rows = [(name, row[3]) for name, row in _COMMANDS.items() if name]
        tail = ["", "'dualtab COMMAND -h' lists the options of a command."]
    else:
        required = [f"--{name} {_OPTIONS[name][0]}" for name in options
                    if _OPTIONS[name][2] is None]
        usage = ["usage: dualtab", command, "[OPTIONS]", *required,
                 *map(str.upper, positionals)]
        head = [" ".join(usage), "", text, "", "options:"]
        rows = [("-h, --help", "print this help")]
        for name in options:
            metavar, _, default, text = _OPTIONS[name]
            if metavar and default is not None:
                text += f" (default {default})"
            rows.append((f"--{name} {metavar or ''}".rstrip(), text))
        tail = []
    width = max(len(left) for left, _ in rows) + 2
    return [*head, *(f"  {left:{width}}{right}" for left, right in rows), *tail,
            *_HELP_NOTE]


def _option(arg, names):
    """What ``arg``, met before ``--``, is to a reader of the options
    ``names``: None for a positional, else ``(name, value)``.  ``name`` is
    None for an unknown option, and ``value`` is the text after ``=``, or
    None without one.  A long option may be shortened to a unique prefix."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "-":
        given, equals, value = arg.partition("=")
        found = ([name for name in names if f"--{name}" == given]
                 or [name for name in names if f"--{name}".startswith(given)])
        if len(found) > 1:
            raise ParseError(f"ambiguous option {given!r}")
        if found:
            return found[0], value if equals else None
    elif arg[1] == "h":
        # ``-hh`` is ``-h`` twice; ``-h`` takes no value
        return "help", arg[2:].strip("h") or None
    if _NEGATIVE_NUMBER(arg) or " " in arg:
        return None
    return None, None


def _read_argv(argv, command=None, unknown=()):
    """The handler that the command line ``argv`` runs and its arguments:
    the options and positionals of ``command``, read from what follows the
    command's name, or, when ``command`` is None, from the whole line.
    ``unknown`` holds the unknown options met before the command's name.
    Options come before or after positionals; after ``--`` every argument
    is a positional.  A usage error raises ``ParseError`` without an
    offset; ``-h`` asks for ``_print_help``."""
    _, positionals, options, _ = _COMMANDS[command]
    names = ("help", *options)
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(arg, names) for arg in argv[:end]]
    values = {"command": command, **{name: _OPTIONS[name][2] for name in options}}
    given, unknown = [], list(unknown)
    filled = False  # whether the argument just read filled a positional
    at = 0
    while at < end:
        arg, kind = argv[at], kinds[at]
        at += 1
        filled = kind is None and len(given) < len(positionals)
        if kind is None and command is None:
            if arg not in _COMMANDS:
                raise ParseError(f"unknown command {arg!r}")
            return _read_argv(argv[at:], arg, unknown)
        if kind is None:
            given.append(arg)
            continue
        name, value = kind
        if name is None:
            unknown.append(arg)
            continue
        if name == "help":
            if value is not None:
                raise ParseError(f"-h takes no value, not {arg!r}")
            return _print_help, command
        metavar, read, _, _ = _OPTIONS[name]
        if metavar is None:
            if value is not None:
                raise ParseError(f"--{name} takes no value")
            values[name] = True
            continue
        if value is None:
            if at == end or kinds[at] is not None:
                raise ParseError(f"--{name} expects {metavar}")
            value, at = argv[at], at + 1
        try:
            values[name] = read(value, values[name])
        except ValueError as exc:
            raise ParseError(f"--{name} {exc}") from None
    if command is None:
        raise ParseError(f"expected a command: {', '.join(filter(None, _COMMANDS))}")
    if end < len(argv):
        # ``--`` belongs to the positional just read, or to the next one
        if not (filled or len(given) < len(positionals) and end + 1 < len(argv)):
            unknown.append("--")
        given += argv[end + 1:]
    unknown += given[len(positionals):]
    if unknown:
        raise ParseError(f"unrecognized arguments: {' '.join(map(repr, unknown))}")
    missing = [name.upper() for name in positionals[len(given):]]
    missing += [f"--{name}" for name in options if values[name] is None]
    if missing:
        raise ParseError(f"{command} expects {' '.join(missing)}")
    values.update(zip(positionals, given))
    args = {name.replace("-", "_"): value for name, value in values.items()}
    return _COMMANDS[command][0], SimpleNamespace(**args)


def main(argv=None):
    try:
        handler, args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except ParseError as exc:
        _write(sys.stderr, [f"error: {exc}"])
        return EXIT_PARSE
    except (FragmentViolation, EmptyPremises) as exc:
        _write(sys.stderr, [f"error: {exc}"])
        return EXIT_FRAGMENT
    except ResourceExhausted as exc:
        _write(sys.stderr, [f"error: {exc}"])
        return EXIT_RESOURCES
    except Exception as exc:  # EngineInvariantError, or any other bug
        _write(sys.stderr, [f"internal error: {type(exc).__name__}: {exc}"])
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
