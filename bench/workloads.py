"""Seeded inputs for the three benchmark workloads, and the checked
pipeline each problem runs through.

Every problem is solved by ``Problem.solve(tr)``.  ``tr`` is the tracer
(see ``spans.py``): each call into a layer of dualtab goes through
``tr.call(layer, fn, *args)``, so the untraced and the traced run execute
the same calls.  A check that fails raises ``CheckFailed``; any other
exception is a failed operation.

Expected verdicts never come from the engine: family verdicts are known by
construction, corpus proofs are checked against the finite-model oracle,
countermodels are checked by evaluating every formula of their branch, and
modal verdicts are compared with the Kripke oracle.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import string
import subprocess
import sys
from dataclasses import dataclass, field

from dualtab import (Proof, RelFormula, brute_force_countermodel,
                     extract_model, falsifies_branch, model_from_json,
                     run_procedure, satisfies, verdict_to_json)
from dualtab.frontends import (EntailmentProblem, encode_entailment,
                               kripke_countermodel, parse_modal, render_modal,
                               translate_modal)
from dualtab.frontends.modal import And, Box, Dia, Not, Or, Prop
from dualtab.terms import (Cmpl, Comp, Inter, ONE, Union, Var, components,
                           fragment_check, parse_term, render_term,
                           simplify_ones, term_size, term_variables)

VALID, INVALID = "valid", "invalid"

# Family sizes: small enough that one round of all twelve instances takes
# about a second, large enough that the per-step cost of each family is
# visibly growing with n.
FAMILY_SIZES = {
    "modal_dist": (4, 8, 12),
    "kdist": (4, 8, 16),
    "branching": (4, 6, 8),
    "cycle": (4, 8, 10),
}
FAMILY_VERDICT = {"modal_dist": VALID, "kdist": VALID, "branching": VALID,
                  "cycle": INVALID}
TINY_FAMILY_SIZES = {name: sizes[:1] for name, sizes in FAMILY_SIZES.items()}

# The acceptance corpus (tests/conftest.py): generator seed, variables,
# size and depth.  Its terms are fixed; --seed renames the variables,
# shuffles the order and draws the modal sample.
CORPUS_SEED = 20240809
CORPUS_VARS = ("r", "s", "t")
CORPUS_SIZE = 500
CORPUS_DEPTH = 5
MODAL_SAMPLE = 300
ORACLE_SIZE = 3


class CheckFailed(Exception):
    """A verdict or an output did not pass its independent check."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


class NullTracer:
    """Calls through without recording anything (the untraced run)."""

    def call(self, name, fn, *args):
        return fn(*args)

    def problem(self, pid):
        return contextlib.nullcontext()


@dataclass
class Counts:
    """Work counts of one round; they repeat exactly for a given seed."""

    steps: int = 0
    branches: int = 0
    variables: int = 0
    nodes: int = 0
    oracle_calls: int = 0
    checked_formulas: int = 0
    json_bytes: int = 0
    steps_by_pid: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def prepare(term):
    """simplify_ones + fragment_check + components, as the engine does."""
    term = simplify_ones(term)
    verdict = fragment_check(term)
    return term, verdict, components(term)


def falsified(verdict, term):
    """The countermodel falsifies every formula of its branch and the input."""
    query = RelFormula("x", term, "y")
    return (falsifies_branch(verdict.model, verdict.valuation, verdict.branch)
            and not satisfies(verdict.model, verdict.valuation, query))


def decide(tr, term, counts, pid):
    """Prepare, search, and check the verdict's own evidence.

    Returns the verdict; proofs must have every leaf closed, countermodels
    must be re-extracted identically and falsify their whole branch.
    """
    term, frag, cp = tr.call("terms.prepare", prepare, term)
    check(bool(frag), f"input left the fragment: {frag.clause}")
    verdict = tr.call("engine.search", run_procedure, term)
    tree = verdict.tree
    counts.steps += tree.steps
    counts.branches += tree.branch_count
    counts.variables += tree.max_vars
    counts.nodes += term_size(term)
    counts.steps_by_pid[pid] = tree.steps
    check(tree.max_vars <= 8 * len(cp) ** 2 + 2, "variable bound exceeded")
    if isinstance(verdict, Proof):
        check(all(node.closed for node in tree.nodes if not node.children),
              "proof tree has an open leaf")
    else:
        again = tr.call("engine.extract", extract_model, verdict.branch)
        check(again == (verdict.model, verdict.valuation),
              "second model extraction differs")
        counts.checked_formulas += len(verdict.branch.history) + 1
        check(tr.call("semantics.check", falsified, verdict, term),
              "countermodel does not falsify its branch and the input")
    return verdict, term


def seeded_names(rng, count):
    """``count`` distinct three-letter identifiers, in random order.

    Fixed-length names keep parsing and rendering cost the same for every
    seed; the engine's work does not depend on the names.
    """
    names = set()
    while len(names) < count:
        names.add(rng.choice(string.ascii_lowercase)
                  + "".join(rng.choices(string.ascii_lowercase, k=2)))
    names = sorted(names)
    rng.shuffle(names)
    return names


# ---------------------------------------------------------------------------
# families: scaled parametric modal formulas


def _conj(parts):
    return " & ".join(f"({p})" for p in parts)


def _disj(parts):
    return " | ".join(f"({p})" for p in parts)


def family_text(name, n, p, q, r):
    """Text of family ``name`` at size ``n`` over propositions ``p``, ``q``
    and the relation ``r``."""
    if name == "modal_dist":
        return (f"({_conj(f'<{r}>({p[i]} | {q[i]})' for i in range(n))}) -> "
                f"({_disj(f'<{r}>{p[i]} | <{r}>{q[i]}' for i in range(n))})")
    if name == "kdist":
        box = f"[{r}]" * n
        return f"{box}({p[0]} -> {q[0]}) -> ({box}{p[0]} -> {box}{q[0]})"
    if name == "branching":
        return (f"({_conj(f'<{r}>{p[i]} | <{r}>{q[i]}' for i in range(n))}) -> "
                f"<{r}>({_disj(f'{p[i]} | {q[i]}' for i in range(n))})")
    if name == "cycle":
        return (f"~(({_conj(f'<{r}>{p[i]}' for i in range(n))}) & "
                f"({_conj(f'[{r}]({p[i]} -> <{r}>{p[(i + 1) % n]})' for i in range(n))}))")
    raise ValueError(name)


def encode_modal(text):
    return translate_modal(parse_modal(text))


class FamilyProblem:
    def __init__(self, pid, family, n, text):
        self.pid = pid
        self.family = family
        self.label = f"{family}/{n}"
        self.text = text
        self.expected = FAMILY_VERDICT[family]

    def solve(self, tr, counts):
        term = tr.call("frontends.encode", encode_modal, self.text)
        verdict, _ = decide(tr, term, counts, self.pid)
        got = VALID if isinstance(verdict, Proof) else INVALID
        check(got == self.expected,
              f"{self.label}: verdict {got}, expected {self.expected}")


def families(seed, tiny=False):
    rng = random.Random(seed)
    sizes = TINY_FAMILY_SIZES if tiny else FAMILY_SIZES
    problems = []
    for family, ns in sizes.items():
        for n in ns:
            names = seeded_names(rng, 2 * n + 1)
            text = family_text(family, n, names[:n], names[n:2 * n], names[-1])
            problems.append(FamilyProblem(len(problems), family, n, text))
    smallest = [p for i, p in enumerate(problems)
                if i == 0 or problems[i - 1].family != p.family]
    return problems, smallest


# ---------------------------------------------------------------------------
# verify: the acceptance corpus and the depth-3 modal sweep, with oracles


def _gen_plain_boolean(rng, depth):
    if depth <= 1 or rng.random() < 0.35:
        return Var(rng.choice(CORPUS_VARS))
    op = Union if rng.random() < 0.5 else Inter
    return op(_gen_plain_boolean(rng, depth - 1), _gen_plain_boolean(rng, depth - 1))


def _gen_comp_right(rng, depth):
    if rng.random() < 0.25:
        return ONE
    return _gen_h(rng, depth)


def _gen_h(rng, depth):
    if depth <= 1:
        return Var(rng.choice(CORPUS_VARS))
    roll = rng.random()
    if roll < 0.30:
        return Cmpl(_gen_h(rng, depth - 1))
    if roll < 0.50:
        op = Union if rng.random() < 0.5 else Inter
        return op(_gen_h(rng, depth - 1), _gen_h(rng, depth - 1))
    right = ONE if rng.random() < 0.45 else _gen_h(rng, depth - 1)
    return Comp(_gen_plain_boolean(rng, depth - 1), right)


def _gen_fragment_term(rng, depth):
    if depth <= 1:
        return ONE if rng.random() < 0.05 else Var(rng.choice(CORPUS_VARS))
    roll = rng.random()
    if roll < 0.22:
        return Cmpl(_gen_fragment_term(rng, depth - 1))
    if roll < 0.40:
        return Union(_gen_fragment_term(rng, depth - 1), _gen_fragment_term(rng, depth - 1))
    if roll < 0.55:
        return Inter(_gen_fragment_term(rng, depth - 1), _gen_fragment_term(rng, depth - 1))
    left = ONE if rng.random() < 0.5 else _gen_plain_boolean(rng, depth - 1)
    return Comp(left, _gen_comp_right(rng, depth - 1))


def acceptance_corpus(size=CORPUS_SIZE):
    """The acceptance suite's corpus: the same generator, seed and order."""
    rng = random.Random(CORPUS_SEED)
    seen = {}
    while len(seen) < size:
        seen.setdefault(simplify_ones(_gen_fragment_term(rng, CORPUS_DEPTH)), None)
    return list(seen)


def rename(t, names):
    match t:
        case Var(name):
            return Var(names[name])
        case Cmpl(a):
            return Cmpl(rename(a, names))
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            return type(t)(rename(l, names), rename(r, names))
    return t


def modal_sweep():
    """All 1 848 modal formulas of depth at most 3 over p, q and the
    programs r, s, r|s, r&s, in the acceptance suite's order."""
    programs = [parse_term(s) for s in ("r", "s", "r | s", "r & s")]
    level = [Prop("p"), Prop("q")]
    for _ in range(2):
        out = list(level)
        out += [Not(f) for f in level]
        out += [ctor(prog, f) for ctor in (Box, Dia) for prog in programs
                for f in level]
        out += [op(a, b) for op in (And, Or) for a in level for b in level]
        level = out
    return level


class CorpusProblem:
    family = None

    def __init__(self, pid, text, variables):
        self.pid = pid
        self.label = f"corpus/{pid}"
        self.text = text
        self.variables = variables

    def solve(self, tr, counts):
        term = tr.call("terms.parse", parse_term, self.text)
        verdict, term = decide(tr, term, counts, self.pid)
        if isinstance(verdict, Proof):
            counts.oracle_calls += 1
            witness = tr.call("semantics.oracle", brute_force_countermodel,
                              term, ORACLE_SIZE)
            check(witness is None,
                  f"proof of {self.text!r} has a countermodel of at most "
                  f"{ORACLE_SIZE} elements")


class ModalProblem:
    family = None

    def __init__(self, pid, text):
        self.pid = pid
        self.label = f"modal/{pid}"
        self.text = text

    def solve(self, tr, counts):
        formula = tr.call("frontends.encode", parse_modal, self.text)
        term = tr.call("frontends.encode", translate_modal, formula)
        verdict, _ = decide(tr, term, counts, self.pid)
        refutation = tr.call("kripke.oracle", kripke_countermodel, formula,
                             ORACLE_SIZE)
        proved = isinstance(verdict, Proof)
        check(proved == (refutation is None),
              f"{self.text!r}: relational {'proof' if proved else 'countermodel'}"
              f", Kripke {'none' if refutation is None else 'refutation'}")


def verify(seed, tiny=False):
    rng = random.Random(seed)
    names = dict(zip(CORPUS_VARS, seeded_names(rng, len(CORPUS_VARS))))
    corpus = acceptance_corpus(40 if tiny else CORPUS_SIZE)
    rng.shuffle(corpus)
    problems = []
    for term in corpus:
        renamed = rename(term, names)
        problems.append(CorpusProblem(len(problems), render_term(renamed),
                                      len(term_variables(renamed))))
    sweep = modal_sweep()
    for f in rng.sample(sweep, 20 if tiny else MODAL_SAMPLE):
        problems.append(ModalProblem(len(problems), render_modal(f)))
    cheap = [p for p in problems if not isinstance(p, CorpusProblem)
             or p.variables <= 2]
    return problems, cheap[:20]


# ---------------------------------------------------------------------------
# cli: one `python -m dualtab ... --json` process per problem


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, env, cwd):
    """Run one process to its end; returns (exit code, stdout, stderr,
    peak RSS in KiB) for that process alone."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


class CliProblem:
    """One CLI invocation with a verdict known by construction."""

    def __init__(self, pid, command, args, expected, term, env, cwd, replay,
                 family=None):
        self.pid = pid
        self.family = family
        self.label = f"{command}/{family or expected}"
        self.command = command
        self.args = args
        self.expected = expected
        self.term = term
        self.argv = [sys.executable, "-m", "dualtab", command, "--json", *args]
        self.env = env
        self.cwd = cwd
        self.peak_rss_kib = 0
        self.replay = replay

    def solve(self, tr, counts):
        code, out, err, rss = tr.call("cli.process", run_process, self.argv,
                                      self.env, self.cwd)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if code not in (0, 1) or not out.startswith("{"):
            raise RuntimeError(f"{self.command} {self.args}: exit {code}: "
                               f"{err.strip().splitlines()[-1:]}")
        payload = json.loads(out)
        want_code = 0 if self.expected == VALID else 1
        check(code == want_code and payload["verdict"] == self.expected,
              f"{self.command} {self.args}: exit {code}, verdict "
              f"{payload['verdict']}, expected {self.expected}")
        if self.command != "prove":
            check(payload["term"] == render_term(self.term),
                  f"{self.command} {self.args}: encoded term differs")
        check_payload(payload, self.term)
        counts.json_bytes += len(out)
        if self.replay:
            check(self.in_process(tr, counts) == out,
                  f"{self.command} {self.args}: library JSON differs from CLI")

    def in_process(self, tr, counts):
        """The same decision through the library, as the CLI makes it."""
        if self.command == "prove":
            term = tr.call("terms.parse", parse_term, self.args[-1])
            extra = None
        elif self.command == "entail":
            premise = tr.call("terms.parse", parse_term, self.args[0].split("=", 1)[1])
            conclusion = tr.call("terms.parse", parse_term, self.args[1].split("=", 1)[1])
            term = tr.call("frontends.encode", encode_entailment,
                           EntailmentProblem((premise,), conclusion))
            extra = {"term": render_term(term)}
        else:
            term = tr.call("frontends.encode", encode_modal, self.args[-1])
            extra = {"term": render_term(term)}
        verdict, _ = decide(tr, term, counts, self.pid)
        return tr.call("engine.json", dump_verdict, verdict, extra)


def dump_verdict(verdict, extra):
    payload = verdict_to_json(verdict)
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check_payload(payload, term):
    """Check a CLI verdict from its JSON alone: a proof has only closed
    leaves, a countermodel falsifies the input."""
    if payload["verdict"] == VALID:
        check(payload["countermodel"] is None and payload["proof"] is not None,
              "valid verdict without exactly a proof")
        nodes = payload["proof"]["nodes"]
        check(all(node["closed"] for node in nodes if not node["children"]),
              "JSON proof tree has an open leaf")
    else:
        check(payload["proof"] is None and payload["countermodel"] is not None,
              "invalid verdict without exactly a countermodel")
        model, valuation = model_from_json(payload["countermodel"])
        check(not satisfies(model, valuation, RelFormula("x", term, "y")),
              "JSON countermodel satisfies the input")


def cli(seed, src, cwd, tiny=False, replay=False):
    """Eight small invocations: two each of prove and entail, and one modal
    invocation per family at a small size.  Inputs are seeded; verdicts hold
    by construction.  With ``replay`` each problem is also decided in this
    process, to split the CLI's time into layers."""
    rng = random.Random(seed)
    corpus = acceptance_corpus(60)
    a, b = rng.sample([t for t in corpus if term_size(t) <= 12], 2)
    names = seeded_names(rng, 9)
    a = render_term(rename(a, dict(zip(CORPUS_VARS, names[:3]))))
    b = render_term(rename(b, dict(zip(CORPUS_VARS, names[:3]))))
    r, s1, s2, p, q, u = names[3:]
    env = cli_env(src)
    specs = [
        ("prove", [f"({a}) | -({a})"], VALID),
        ("prove", [f"({b}) & -({b})"], INVALID),
        ("entail", [f"--premise=-{r} | -({s1} | {s2})", f"--conclusion=-{s1} | -{r}"], VALID),
        ("entail", [f"--premise=-{r} | -{s1}", f"--conclusion=-{r} | -{s2}"], INVALID),
    ]
    for family, n in (("kdist", 2), ("modal_dist", 2), ("branching", 2),
                      ("cycle", 3)):
        text = family_text(family, n, [p, q, s1], [s2, u], r)
        specs.append(("modal", [text], FAMILY_VERDICT[family], family))
    problems = []
    for command, args, expected, *family in specs[:4] if tiny else specs:
        if command == "prove":
            args = ["--", *args]
            term = simplify_ones(parse_term(args[-1]))
        elif command == "entail":
            term = encode_entailment(EntailmentProblem(
                (parse_term(args[0].split("=", 1)[1]),),
                parse_term(args[1].split("=", 1)[1])))
        else:
            args = ["--", *args]
            term = encode_modal(args[-1])
        problems.append(CliProblem(len(problems), command, args, expected,
                                   term, env, cwd, replay, *family))
    return problems, problems[:1]


def build(workload, seed, src, cwd, tiny=False, replay=False):
    """(problems, warm-up problems) of a workload; ``replay`` is for the
    traced run of the cli workload."""
    if workload == "families":
        return families(seed, tiny)
    if workload == "verify":
        return verify(seed, tiny)
    if workload == "cli":
        return cli(seed, src, cwd, tiny, replay)
    raise ValueError(f"unknown workload {workload!r}")
