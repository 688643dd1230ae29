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

Each command imports only the modules it runs: ``terms``, ``formulas``
and ``semantics`` for every command, ``engine`` for the commands that
search (``prove``, ``entail``, ``modal``), ``frontends.entailment`` for
``entail``, ``frontends.modal`` for ``modal`` and ``frontends.kripke``
for ``modal --verify``; a ``--verify``
that checks a proof also loads ``oracle`` and numpy.  Without a bytecode
cache (``PYTHONDONTWRITEBYTECODE``) every process compiles each module
it imports, and that compiling is a large part of a short command's
time.

Exit codes: 0 valid / falsified, 1 invalid / satisfied, 2 parse error or
malformed input (including nesting deeper than ``terms.MAX_NESTING`` and
terms, formulas or encodings deeper than ``terms.MAX_DEPTH``), 3 fragment
violation, 4 resource exhausted, 5 internal error (an engine invariant
fired, or any other unexpected failure; one line, never a traceback).

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

import argparse
import json
import os
import sys
import warnings

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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualtab",
        description="Dual-tableau validity prover with countermodel extraction.",
        epilog="Input starting with '-' needs the usual separator, e.g. "
               "dualtab prove --json -- '-(r ; 1)'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return value

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--trace", action="store_true",
                       help="stream rule applications to stderr")
        p.add_argument("--max-steps", type=positive, default=1_000_000, metavar="N")
        p.add_argument("--oracle-size", type=int, default=3, choices=(1, 2, 3, 4),
                       metavar="K", help="universe cap for --verify oracles")
        p.add_argument("--verify", action="store_true",
                       help="cross-check the verdict with the independent oracles")

    p = sub.add_parser("prove", help="decide validity of a term")
    p.add_argument("term")
    common(p)

    p = sub.add_parser("entail", help="decide a relational entailment")
    p.add_argument("--premise", action="append", required=True, metavar="TERM")
    p.add_argument("--conclusion", required=True, metavar="TERM")
    common(p)

    p = sub.add_parser("modal", help="decide a modal formula")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("check-model", help="evaluate a formula against a model file")
    p.add_argument("formula")
    p.add_argument("model_file")

    p = sub.add_parser("fragment", help="check fragment membership")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simplify", help="apply the 1-identities to a term")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")

    return parser


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
    except (OSError, ValueError, KeyError, TypeError) as exc:
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


_COMMANDS = {
    "prove": cmd_prove,
    "entail": cmd_entail,
    "modal": cmd_modal,
    "check-model": cmd_check_model,
    "fragment": cmd_fragment,
    "simplify": cmd_simplify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
