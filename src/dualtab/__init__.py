"""Dual-tableau validity prover for a decidable fragment of the logic of
binary relations, with countermodel extraction, an entailment encoder and
a modal frontend."""

from .engine import (Countermodel, Proof, Verdict, extract_model,
                     run_procedure, verdict_to_json)
from .errors import (BranchNotSaturated, BudgetExceeded, DualTabError,
                     EmptyPremises, EngineInvariantError, FragmentViolation,
                     NotBoolean, ParseError, ResourceExhausted, UnboundVariable)
from .formulas import FormulaSet, RelFormula
from .semantics import (Model, eval_term, falsifies_branch, model_from_json,
                        model_to_json, satisfies)
from .terms import (Cmpl, Comp, Conv, FragmentVerdict, Inter, ONE, One,
                    RelTerm, Union, Var, components, fragment_check, nf_cmpl,
                    parse_term, render_term, simplify_ones)

__version__ = "0.1.0"


def __getattr__(name):
    # the oracle imports numpy, so only asking for it loads the module
    if name == "brute_force_countermodel":
        from .oracle import brute_force_countermodel
        return brute_force_countermodel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "run_procedure", "Proof", "Countermodel", "Verdict", "extract_model",
    "verdict_to_json",
    "parse_term", "render_term", "simplify_ones", "nf_cmpl", "components",
    "fragment_check", "FragmentVerdict",
    "RelTerm", "One", "ONE", "Var", "Cmpl", "Union", "Inter", "Comp", "Conv",
    "RelFormula", "FormulaSet",
    "Model", "eval_term", "satisfies", "falsifies_branch",
    "brute_force_countermodel", "model_to_json", "model_from_json",
    "DualTabError", "ParseError", "NotBoolean", "FragmentViolation",
    "EmptyPremises", "ResourceExhausted", "BranchNotSaturated",
    "UnboundVariable", "BudgetExceeded", "EngineInvariantError",
]
