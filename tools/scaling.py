"""Print how the cost of a proof-search step grows with problem size.

Runs the decision procedure on the four modal families of
``tests/corpus.py`` at a small and a large size each, and prints per
instance the steps taken, the branches of the deduction tree, the most
variables on one branch, the best of five wall times of
``run_procedure``, that time per step in microseconds, the generation-0
collections of the garbage collector during those five runs (a count of
allocation, not of time: a search pauses the collector, so they run
outside the searches), the objects ``gc.collect()`` finds unreachable after
one more run with the collector off (the reference cycles a run leaves,
which must be 0), the peak memory
that ``tracemalloc`` traces over one more, untimed, call, the memory
still traced after it while its verdict is kept (after
``gc.collect()``), and the time of one ``verdict_to_json`` plus
``json.dumps(indent=2, sort_keys=True)`` of that verdict, as the CLI's
``--json`` prints it, and the trail entries a step writes (``trail/step``:
over one more, untimed, search, the growth of ``Branch.mark`` across
each ``ProofSearch._enter``, over the steps).  The counts sit next to
the time per step so that a change in speed can be told from a change
in the work done.  Translating the modal formula is not measured there.
It then prints the same columns for the biconditional chains
``p0 <-> ... <-> pk``, k = 8, 12 and 16, timing ``translate_modal`` and
``run_procedure`` together: a chain's term shares
every operand of each ``<->``, so a walker that visits shared subterms
once per occurrence shows here.  Next, for the Kripke oracle, it prints
the best of five wall times of ``kripke_countermodel`` and the peak
memory that ``tracemalloc`` traces over one more call, on
``p0 <-> ... <-> p20`` and ``[r0]p | ... | [r19]p`` at one world and on
``modal_dist`` n=2 at three worlds: the oracle's memory should follow
the variables a subformula reads, not its budget.  Last it prints the
best of five wall times of ``parse_term`` on balanced unions of 2^13 and
2^15 variables, about 64 KB and 256 KB of text, and of ``parse_modal`` on the
``modal_dist`` n=20 formula, each called from the top level and from
700 interpreter frames deep: a tokenizer or parser whose cost per token
grows with the input, or with the caller's stack, shows here.  Then,
for a bare ``python -c pass`` and for ``python -m dualtab
prove|entail|modal --json`` on fixed small inputs, it prints the best
of five wall times of the process,
the dualtab modules it imported with their source lines, and the other
modules it imported beyond those of ``python -c pass``, all read from the
``-X importtime`` report of one more run: counts that sit next to the
time, since a process compiles every dualtab module it imports when no
bytecode is cached, as under ``PYTHONDONTWRITEBYTECODE``, whose setting
it prints too, and every module it imports costs time to load.  The numbers depend on the
machine, so nothing is checked: the script exits 0 whatever it measures.
Each row is written as soon as it is measured; a reader that closes the
output early, as ``| head`` does, ends the script quietly.

Run it from the root of a source checkout; the Kripke rows need numpy,
nothing needs pytest or hypothesis::

    python3 tools/scaling.py
"""

import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import family_text  # noqa: E402
from dualtab.engine import ProofSearch, run_procedure, verdict_to_json  # noqa: E402
from dualtab.frontends import kripke_countermodel, parse_modal, translate_modal  # noqa: E402
from dualtab.terms import parse_term  # noqa: E402

SIZES = (("modal_dist", (4, 20)), ("cycle", (4, 14)), ("branching", (4, 8)),
         ("kdist", (4, 32)))
CHAINS = (8, 12, 16)
# the Kripke oracle's inputs: a name, the formula and the worlds searched
ORACLE = (("iff_chain 20", " <-> ".join(f"p{i}" for i in range(21)), 1),
          ("boxes 20", " | ".join(f"[r{i}]p" for i in range(20)), 1),
          ("modal_dist 2", family_text("modal_dist", 2), 3))
PARSE_LEAVES = (2 ** 13, 2 ** 15)
DEEP_CALLER = 700  # interpreter frames under which each parse is timed again
REPEATS = 5
# one process per command, each on a small fixed input
PROCESSES = (
    ("python -c pass", ["-c", "pass"]),
    ("prove", ["-m", "dualtab", "prove", "--json", "--", "r | -r"]),
    ("entail", ["-m", "dualtab", "entail", "--json", "--premise=-r | -(s | t)",
                "--conclusion=-s | -r"]),
    ("modal", ["-m", "dualtab", "modal", "--json", "--",
               "[r](p -> q) -> ([r]p -> [r]q)"]),
)


def gen0_collections():
    return gc.get_stats()[0]["collections"]


def best_of(run):
    """Steps, branches and branch variables of the verdict ``run()``
    returns, its best wall time in seconds over :data:`REPEATS` calls and
    the generation-0 collections during them; the objects a collection
    finds unreachable after one more call with the collector off; the
    peak traced memory in
    bytes of one more call, which is not timed, and the traced memory its
    verdict retains; and the seconds that verdict's JSON text takes to
    build."""
    best = float("inf")
    gc0 = gen0_collections()
    for _ in range(REPEATS):
        start = time.perf_counter()
        verdict = run()
        best = min(best, time.perf_counter() - start)
    gc0 = gen0_collections() - gc0
    # terms are interned while alive: drop the last verdict, so that the
    # traced call builds and counts its own
    del verdict
    gc.collect()
    gc.disable()
    try:
        run()
    finally:
        gc.enable()
    cyclic = gc.collect()
    tracemalloc.start()
    try:
        verdict = run()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    json.dumps(verdict_to_json(verdict), indent=2, sort_keys=True)
    to_json = time.perf_counter() - start
    tree = verdict.tree
    return (tree.steps, tree.branch_count, tree.max_vars, best, gc0, cyclic,
            peak, retained, to_json)


class TrailCount(ProofSearch):
    """A proof search that counts the trail entries each child that
    enters the branch writes, read off ``Branch.mark``."""

    written = 0

    def _enter(self, branch, child):
        mark = branch.mark()
        super()._enter(branch, child)
        self.written += branch.mark() - mark


def trail_per_step(term):
    """The trail entries per step of one search of ``term``."""
    search = TrailCount(term)
    search.run()
    return search.written / search.tree.steps


def measure(name, n):
    """:func:`best_of` deciding one family instance, and its
    :func:`trail_per_step`."""
    term = translate_modal(parse_modal(family_text(name, n)))
    return *best_of(lambda: run_procedure(term)), trail_per_step(term)


def measure_chain(k):
    """:func:`best_of` translating and deciding ``p0 <-> ... <-> pk``, and
    the :func:`trail_per_step` of its search."""
    formula = parse_modal(" <-> ".join(f"p{i}" for i in range(k + 1)))
    return (*best_of(lambda: run_procedure(translate_modal(formula))),
            trail_per_step(translate_modal(formula)))


def measure_oracle(text, worlds):
    """The best wall time in seconds of :data:`REPEATS` Kripke searches of
    ``text`` up to ``worlds`` worlds, the peak traced memory in bytes of
    one more, and whether it found a refutation."""
    formula = parse_modal(text)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kripke_countermodel(formula, worlds)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        refuted = kripke_countermodel(formula, worlds) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak, refuted


def balanced_union(leaves):
    """``(r0 | r1) | (r2 | r3) ...`` over ``leaves`` variables, a power of
    two, named r0 to r99 in turn, as text."""
    parts = [f"r{i % 100}" for i in range(leaves)]
    while len(parts) > 1:
        parts = [f"({a} | {b})" for a, b in zip(parts[::2], parts[1::2])]
    return parts[0]


def best_parse(parse, text, frames=0):
    """The best wall time in seconds of :data:`REPEATS` ``parse(text)``,
    called from ``frames`` more interpreter frames deep."""
    if frames > 0:
        return best_parse(parse, text, frames - 1)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        parse(text)
        best = min(best, time.perf_counter() - start)
    return best


def run_python(args, stderr=subprocess.DEVNULL):
    """Run ``python args`` with this checkout's sources first on the import
    path; returns its stderr when ``stderr`` is ``subprocess.PIPE``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=stderr, text=True, check=False).stderr


def measure_process(args):
    """The best wall time in seconds of :data:`REPEATS` runs of ``python
    args``; the dualtab modules one more run with ``-X importtime``
    imported, with the source lines of each; and the set of the other
    modules it imported."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_python(args)
        best = min(best, time.perf_counter() - start)
    importtime = run_python(["-X", "importtime", *args], stderr=subprocess.PIPE)
    names = [line.rsplit("|", 1)[1].strip() for line in importtime.splitlines()
             if line.startswith("import time:")]
    modules, others = {}, set()
    for name in names:
        if name == "dualtab" or name.startswith("dualtab."):
            path = ROOT / "src" / Path(*name.split("."))
            path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
            modules[name] = len(path.read_text(encoding="utf-8").splitlines())
        else:
            others.add(name)
    return best, modules, others


def report(name, n, steps, branches, variables, best, gc0, cyclic, peak,
           retained, to_json, trail):
    print(f"{name:12} {n:>3} {steps:>7} {branches:>8} {variables:>5} "
          f"{best * 1e3:>9.1f} {best * 1e6 / steps:>8.0f} {gc0:>5} {cyclic:>6} "
          f"{peak / 2 ** 20:>8.2f} {retained / 2 ** 20:>11.2f} {to_json * 1e3:>9.1f} "
          f"{trail:>10.2f}")


def main():
    sys.stdout.reconfigure(line_buffering=True)
    print(f"{'family':12} {'n':>3} {'steps':>7} {'branches':>8} {'vars':>5} "
          f"{'best ms':>9} {'us/step':>8} {'gc0':>5} {'cyclic':>6} {'peak MB':>8} "
          f"{'retained MB':>11} {'json ms':>9} {'trail/step':>10}")
    for name, sizes in SIZES:
        for n in sizes:
            report(name, n, *measure(name, n))
    for k in CHAINS:
        report("iff_chain", k, *measure_chain(k))
    print(f"\n{'kripke':14} {'worlds':>6} {'best ms':>9} {'peak MB':>8} {'refuted':>7}")
    for name, text, worlds in ORACLE:
        best, peak, refuted = measure_oracle(text, worlds)
        print(f"{name:14} {worlds:>6} {best * 1e3:>9.1f} {peak / 2 ** 20:>8.2f} "
              f"{str(refuted):>7}")
    print(f"\n{'parse':12} {'input':>14} {'KB':>6} {'best ms':>9} "
          f"{f'{DEEP_CALLER} deep':>9}")
    inputs = [(parse_term, f"union 2^{leaves.bit_length() - 1}", balanced_union(leaves))
              for leaves in PARSE_LEAVES]
    inputs.append((parse_modal, "modal_dist 20", family_text("modal_dist", 20)))
    for parse, name, text in inputs:
        print(f"{parse.__name__:12} {name:>14} {len(text.encode()) / 1024:>6.0f} "
              f"{best_parse(parse, text) * 1e3:>9.1f} "
              f"{best_parse(parse, text, DEEP_CALLER) * 1e3:>9.1f}")
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    print(f"\n{'process':14} {'best ms':>9} {'modules':>7} {'lines':>6} {'stdlib':>6}  "
          f"dualtab modules (PYTHONDONTWRITEBYTECODE "
          f"{'unset' if flag is None else repr(flag)}); stdlib modules beyond "
          f"python -c pass")
    bare = None
    for name, args in PROCESSES:
        best, modules, others = measure_process(args)
        bare = others if bare is None else bare
        short = " ".join(m.partition(".")[2] or m for m in sorted(modules))
        extra = sorted(others - bare)
        print(f"{name:14} {best * 1e3:>9.1f} {len(modules):>7} "
              f"{sum(modules.values()):>6} {len(extra):>6}  {short}"
              f"{'; ' if extra else ''}{' '.join(extra)}".rstrip())
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the output's reader is gone: stop measuring, and send what is
        # left to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
