"""Dual-tableau validity prover for a decidable fragment of the logic of
binary relations, with countermodel extraction, an entailment encoder and
a modal frontend.

The engine's and the oracle's names are resolved on first use, so that
importing the package compiles neither ``engine`` nor ``oracle`` (which
loads numpy): a command that runs no search or oracle never loads them.
"""

import importlib

from .errors import (BranchNotSaturated, BudgetExceeded, DualTabError,
                     EmptyPremises, EngineInvariantError, FragmentViolation,
                     NotBoolean, ParseError, ResourceExhausted, UnboundVariable)
from .formulas import RelFormula
from .semantics import (Model, eval_term, falsifies_branch, model_from_json,
                        model_to_json, satisfies)
from .terms import (Cmpl, Comp, Conv, FragmentVerdict, Inter, ONE, One,
                    RelTerm, Union, Var, components, fragment_check, nf_cmpl,
                    parse_term, render_term, simplify_ones)

__version__ = "0.1.0"


_SUBMODULE = {
    **dict.fromkeys(("run_procedure", "Proof", "Countermodel", "Verdict",
                     "extract_model", "verdict_to_json"), "engine"),
    "brute_force_countermodel": "oracle",
}


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "run_procedure", "Proof", "Countermodel", "Verdict", "extract_model",
    "verdict_to_json",
    "parse_term", "render_term", "simplify_ones", "nf_cmpl", "components",
    "fragment_check", "FragmentVerdict",
    "RelTerm", "One", "ONE", "Var", "Cmpl", "Union", "Inter", "Comp", "Conv",
    "RelFormula",
    "Model", "eval_term", "satisfies", "falsifies_branch",
    "brute_force_countermodel", "model_to_json", "model_from_json",
    "DualTabError", "ParseError", "NotBoolean", "FragmentViolation",
    "EmptyPremises", "ResourceExhausted", "BranchNotSaturated",
    "UnboundVariable", "BudgetExceeded", "EngineInvariantError",
]
