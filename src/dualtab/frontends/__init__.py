"""The frontends that encode inputs as relational terms: entailments
(:mod:`.entailment`), modal **K** formulas (:mod:`.modal`) and their
Kripke-model oracle (:mod:`.kripke`).

Each public name is resolved from its submodule on first use, so
importing the package or one submodule loads no other submodule: the
CLI's ``entail`` loads only ``entailment``, ``modal`` only ``modal``,
and ``modal --verify`` ``kripke`` as well.  A process with no bytecode
cached (``PYTHONDONTWRITEBYTECODE``) compiles every module it imports,
so a module it does not import costs it nothing.
"""

import importlib

_SUBMODULE = {
    "EntailmentProblem": "entailment", "encode_entailment": "entailment",
    "KripkeModel": "kripke", "eval_modal": "kripke",
    "kripke_countermodel": "kripke",
    "ModalFormula": "modal", "Prop": "modal", "Not": "modal", "And": "modal",
    "Or": "modal", "Box": "modal", "Dia": "modal", "parse_modal": "modal",
    "render_modal": "modal", "translate_modal": "modal",
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
