import itertools
import random

import pytest
from hypothesis import strategies as st

from corpus import (CORPUS_DEPTH, CORPUS_SEED, CORPUS_SIZE,  # noqa: F401
                    CORPUS_VARS, MODAL_PROGRAMS, all_modal, build_corpus,
                    command_lines, family_text, gen_comp_right,
                    gen_fragment_term, gen_h, gen_plain_boolean)
from dualtab.engine import Countermodel, run_procedure
from dualtab.semantics import Model
from dualtab.terms import Cmpl, Comp, Conv, Inter, ONE, Union, Var, simplify_ones


@pytest.fixture(scope="session")
def fragment_corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_countermodels(fragment_corpus):
    """The corpus terms' verdicts that are countermodels; read them only."""
    verdicts = (run_procedure(term) for term in fragment_corpus)
    return [v for v in verdicts if isinstance(v, Countermodel)]


def all_models(names, size, universe=("a", "b", "c", "d")):
    """Every model over the given variables and universe prefix; small sizes only."""
    elems = universe[:size]
    pairs = [(a, b) for a in elems for b in elems]
    for combo in itertools.product(range(1 << len(pairs)), repeat=len(names)):
        yield Model(
            elems,
            {
                name: {pairs[i] for i in range(len(pairs)) if (mask >> i) & 1}
                for name, mask in zip(names, combo)
            },
        )


def term_strategy(variables=("p", "q", "r", "s"), with_comp=True, with_conv=True,
                  max_leaves=8):
    base = st.sampled_from([ONE] + [Var(v) for v in variables])

    def extend(children):
        options = [
            st.builds(Cmpl, children),
            st.builds(Union, children, children),
            st.builds(Inter, children, children),
        ]
        if with_comp:
            options.append(st.builds(Comp, children, children))
        if with_conv:
            options.append(st.builds(Conv, children))
        return st.one_of(*options)

    return st.recursive(base, extend, max_leaves=max_leaves)


def boolean_term_strategy(variables=("p", "q"), max_leaves=8):
    return term_strategy(variables, with_comp=False, with_conv=False,
                         max_leaves=max_leaves)


def fragment_term_strategy(depth=4):
    return st.integers(0, 2 ** 30).map(
        lambda seed: simplify_ones(gen_fragment_term(random.Random(seed), depth))
    )


@st.composite
def model_strategy(draw, names, max_size=3):
    size = draw(st.integers(1, max_size))
    elems = ("a", "b", "c")[:size]
    pairs = [(a, b) for a in elems for b in elems]
    interp = {}
    for name in names:
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        interp[name] = {pairs[i] for i in range(len(pairs)) if (mask >> i) & 1}
    return Model(elems, interp)
