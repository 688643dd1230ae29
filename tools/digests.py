"""Check the verdict, trace and blocking digests of fixed sets of terms.

Runs the decision procedure on the 500-term seeded corpus, the 1 848
translated modal formulas of depth at most 3, and the four modal families
at n=4 and n=8, all built by ``tests/corpus.py``.  It hashes each
verdict's JSON and each run's trace events into two sha256 digests.  A
third digest hashes both, verdict and trace, over ten deeper corpora
(seeds 1-10, 200 terms of depth at most 6 each), whose countermodels use
the literals of blocked formulas far more often.  A fourth digest hashes
the answer of the size-3 finite-model oracle, the first countermodel or
none, for every term of the 500-term corpus.  A fifth hashes the answer
of the Kripke oracle, the first refuting pointed model or none, at 2 and
at 3 worlds for every modal formula of depth at most 3.  The script
prints each digest with the term and step counts, and exits 1 when one
differs from the value pinned below.  A change that must keep every proof
tree, countermodel and rule application as it is leaves the first three
alone; one that must keep every oracle witness leaves the last two alone.

Run it from the root of a source checkout; it needs numpy, which only
the ``oracle`` and ``kripke`` digests use, but neither pytest nor
hypothesis::

    python3 tools/digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import all_modal, build_corpus, family_text  # noqa: E402
from dualtab.engine import run_procedure, verdict_to_json  # noqa: E402
from dualtab.frontends import (kripke_countermodel, parse_modal,  # noqa: E402
                               translate_modal)
from dualtab.oracle import brute_force_countermodel  # noqa: E402
from dualtab.semantics import model_to_json  # noqa: E402

FAMILIES = ("modal_dist", "kdist", "branching", "cycle")

VERDICT_DIGEST = "c3b4cd262a65bef34847e2d6f478a357200c0d0352ca356ae90a3d79182c1787"
TRACE_DIGEST = "fc58031a754240fc9218367cefe06977a6fac1db78624d231b2101aa77d41af8"
BLOCKING_DIGEST = "10e3d0e963fe7780d7fb8ea081989ea78b606b6f1a7303bff9ae082cb0fb7074"
ORACLE_DIGEST = "16d6539d998cd186aad3b8f4111d61043ac1ce4eebb713cf6fb3644293f36953"
KRIPKE_DIGEST = "734f746d099912c130083436fb0ad10e981268177990a566788b1ed6d3b23056"


def terms():
    yield from build_corpus()
    for formula in all_modal(3):
        yield translate_modal(formula)
    for n in (4, 8):
        for name in FAMILIES:
            yield translate_modal(parse_modal(family_text(name, n)))


def blocking_terms():
    for seed in range(1, 11):
        yield from build_corpus(seed=seed, size=200, depth=6)


def runs(terms):
    """Each term's verdict JSON and trace events, as two lines of bytes."""
    for term in terms:
        events = []
        data = verdict_to_json(run_procedure(term, trace=events.append))
        yield (json.dumps(data, sort_keys=True).encode() + b"\n",
               json.dumps(events, sort_keys=True).encode() + b"\n",
               data["stats"]["steps"])


def digests():
    verdict, trace, blocking = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = steps = 0
    for data, events, n in runs(terms()):
        verdict.update(data)
        trace.update(events)
        count += 1
        steps += n
    for data, events, n in runs(blocking_terms()):
        blocking.update(data + events)
        count += 1
        steps += n
    return verdict.hexdigest(), trace.hexdigest(), blocking.hexdigest(), count, steps


def oracle_digest():
    """Digest of the size-3 oracle's answer for every corpus term."""
    digest = hashlib.sha256()
    for term in build_corpus():
        hit = brute_force_countermodel(term, 3)
        digest.update(json.dumps(model_to_json(*hit) if hit else None,
                                 sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def kripke_digest():
    """Digest of the Kripke oracle's answer at 2 and 3 worlds for every
    modal formula of depth at most 3."""
    digest = hashlib.sha256()
    for formula in all_modal(3):
        for worlds in (2, 3):
            hit = kripke_countermodel(formula, worlds)
            if hit is not None:
                model, world = hit
                hit = {"worlds": list(model.worlds),
                       "relations": {k: sorted(v) for k, v in model.relations.items()},
                       "valuation": {k: sorted(v) for k, v in model.valuation.items()},
                       "world": world}
            digest.update(json.dumps(hit, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def main():
    verdict, trace, blocking, count, steps = digests()
    print(f"{count} terms, {steps} steps")
    ok = True
    for name, got, pinned in (("verdict", verdict, VERDICT_DIGEST),
                              ("trace", trace, TRACE_DIGEST),
                              ("blocking", blocking, BLOCKING_DIGEST),
                              ("oracle", oracle_digest(), ORACLE_DIGEST),
                              ("kripke", kripke_digest(), KRIPKE_DIGEST)):
        same = got == pinned
        ok = ok and same
        print(f"{name:8} {got} {'ok' if same else 'DIFFERS from ' + pinned}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
