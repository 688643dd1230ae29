"""numpy serves only the two oracles, so a process loads it only when one
runs, and no dualtab process loads ``dataclasses``, which brings in
``inspect``, ``ast`` and ``dis``.  A CLI command loads only the frontend
modules it runs, and no CLI process loads ``argparse``, ``gettext`` or
``locale``: ``cli`` reads the command line from its own tables.  Each check starts a fresh interpreter: the test process
itself has all of them loaded long before.  Likewise a command that runs
no search does not load the engine."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualtab

SRC = str(Path(dualtab.__file__).resolve().parent.parent)

# Run each argv through ``cli.main`` in one process and print, as JSON,
# whether numpy and dataclasses got loaded and each run's exit code and
# stdout.  With
# ``blocked`` as first argument, importing numpy fails.
CLI_RUNS = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from dualtab.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"numpy": sys.modules.get("numpy") is not None,
                  "dataclasses": "dataclasses" in sys.modules, "runs": runs}))
"""


def python(*args):
    """stdout of ``python args`` with this checkout's sources first on the
    import path; the process must exit 0."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(code, modules):
    """Which of ``modules`` running ``code`` in a fresh interpreter loads."""
    out = python("-c", f"{code}\nimport sys; print(*(m in sys.modules for m in {modules!r}))")
    return [m for m, hit in zip(modules, out.splitlines()[-1].split()) if hit == "True"]


def loads_numpy(code):
    """Whether running ``code`` in a fresh interpreter loads numpy."""
    return loaded(code, ["numpy"]) == ["numpy"]


@pytest.mark.parametrize("module", ["dualtab", "dualtab.cli"])
def test_import_leaves_numpy_out(module):
    assert not loads_numpy(f"import {module}")


@pytest.mark.parametrize("module", ["dualtab", "dualtab.cli", "dualtab.frontends",
                                    "dualtab.frontends.modal", "dualtab.frontends.kripke",
                                    "dualtab.frontends.entailment"])
def test_import_leaves_dataclasses_and_inspect_out(module):
    assert loaded(f"import {module}", ["dataclasses", "inspect"]) == []


FRONTENDS = ["modal", "kripke", "entailment"]


def loaded_frontends(code):
    """Which frontend submodules running ``code`` in a fresh interpreter
    loads, by their short names."""
    modules = [f"dualtab.frontends.{name}" for name in FRONTENDS]
    return [m.rsplit(".", 1)[1] for m in loaded(code, modules)]


@pytest.mark.parametrize("code, expected", [
    ("import dualtab.frontends", []),
    ("import dualtab.frontends.modal", ["modal"]),
    ("import dualtab.frontends.entailment", ["entailment"]),
    ("from dualtab.frontends import parse_modal", ["modal"]),
    ("from dualtab.frontends import kripke_countermodel", ["modal", "kripke"]),
], ids=["package", "modal", "entailment", "parse_modal", "kripke_countermodel"])
def test_frontends_load_on_first_use(code, expected):
    assert loaded_frontends(code) == expected


@pytest.mark.parametrize("argv, expected", [
    (["prove", "--json", "--", "r | -r"], []),
    (["entail", "--json", "--premise", "-r | -(s | t)", "--conclusion", "-s | -r"],
     ["entailment"]),
    (["modal", "--json", "--", "[r](p -> q) -> ([r]p -> [r]q)"], ["modal"]),
    (["modal", "--json", "--verify", "--", "[r](p -> q) -> ([r]p -> [r]q)"],
     ["modal", "kripke"]),
], ids=["prove", "entail", "modal", "modal-verify"])
def test_a_command_loads_only_the_frontends_it_runs(argv, expected):
    code = f"from dualtab.cli import main; assert main({argv!r}) == 0"
    assert loaded_frontends(code) == expected


@pytest.mark.parametrize("code, expected", [
    ("import dualtab", False),
    ("import dualtab.cli", False),
    ("from dualtab import RelFormula, parse_term, satisfies", False),
    ("from dualtab import run_procedure", True),
    ("import dualtab; dualtab.Proof", True),
], ids=["package", "cli", "core-names", "run_procedure", "attribute"])
def test_engine_loads_on_first_use(code, expected):
    assert loaded(code, ["dualtab.engine"]) == (["dualtab.engine"] if expected else [])


@pytest.mark.parametrize("argv, expected", [
    (["simplify", "--", "1 & r"], False),
    (["fragment", "--json", "--", "1 ; r"], False),
    (["prove", "--json", "--", "r | -r"], True),
    (["entail", "--json", "--premise", "-r | -(s | t)", "--conclusion", "-s | -r"],
     True),
    (["modal", "--json", "--", "[r](p -> q) -> ([r]p -> [r]q)"], True),
], ids=["simplify", "fragment", "prove", "entail", "modal"])
def test_only_a_command_that_searches_loads_the_engine(argv, expected):
    code = f"from dualtab.cli import main; assert main({argv!r}) == 0"
    assert loaded(code, ["dualtab.engine"]) == (["dualtab.engine"] if expected else [])


@pytest.mark.parametrize("argv, code", [
    (["prove", "--json", "--", "r | -r"], 0),
    (["entail", "--json", "--premise", "-r | -(s | t)", "--conclusion", "-s | -r"], 0),
    (["modal", "--json", "--", "[r](p -> q) -> ([r]p -> [r]q)"], 0),
    (["check-model", "1", "MODEL"], 1),
    (["fragment", "--json", "--", "1 ; r"], 0),
    (["simplify", "--", "1 & r"], 0),
    (["-h"], 0),
    (["prove", "--max-steps", "0", "--", "r"], 2),
], ids=["prove", "entail", "modal", "check-model", "fragment", "simplify", "help",
        "usage-error"])
def test_no_command_loads_argparse(cli_argvs, argv, code):
    argv = [cli_argvs[-1][-1] if arg == "MODEL" else arg for arg in argv]
    run = f"from dualtab.cli import main; assert main({argv!r}) == {code}"
    assert loaded(run, ["argparse", "gettext", "locale"]) == []


def test_check_model_leaves_the_engine_out(cli_argvs):
    model = cli_argvs[-1][-1]
    code = f"from dualtab.cli import main; assert main(['check-model', '1', {model!r}]) == 1"
    assert loaded(code, ["dualtab.engine"]) == []


def test_package_exports_the_engines_own_objects():
    from dualtab import engine

    names = ["run_procedure", "Proof", "Countermodel", "Verdict",
             "extract_model", "verdict_to_json"]
    for name in names:
        assert getattr(dualtab, name) is getattr(engine, name)
        assert name in dualtab.__all__
    namespace = {}
    exec("from dualtab import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(dualtab.__all__)
    with pytest.raises(AttributeError, match="no attribute 'ProofSearch'"):
        dualtab.ProofSearch


# the public names of dualtab.frontends, by the submodule that defines them
FRONTEND_NAMES = {
    "entailment": ["EntailmentProblem", "encode_entailment"],
    "kripke": ["KripkeModel", "eval_modal", "kripke_countermodel"],
    "modal": ["ModalFormula", "Prop", "Not", "And", "Or", "Box", "Dia",
              "parse_modal", "render_modal", "translate_modal"],
}


def test_frontends_exports_its_submodules_own_objects():
    frontends = importlib.import_module("dualtab.frontends")
    assert sorted(frontends.__all__) == sorted(sum(FRONTEND_NAMES.values(), []))
    for submodule, names in FRONTEND_NAMES.items():
        module = importlib.import_module(f"dualtab.frontends.{submodule}")
        for name in names:
            assert getattr(frontends, name) is getattr(module, name)
    namespace = {}
    exec("from dualtab.frontends import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(frontends.__all__)
    for name in frontends.__all__:
        assert namespace[name] is getattr(frontends, name)


def test_frontends_has_no_other_names():
    import dualtab.frontends as frontends

    with pytest.raises(AttributeError, match="no attribute 'parse_term'"):
        frontends.parse_term
    assert not hasattr(frontends, "translate")
    with pytest.raises(ImportError):
        exec("from dualtab.frontends import run_procedure", {})


@pytest.fixture
def cli_argvs(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"universe": ["x", "y"],
                                 "relations": {"r": [["x", "x"]]},
                                 "valuation": {"x": "x", "y": "y"}}))
    return [
        ["prove", "--json", "--", "r | -r"],
        ["prove", "--json", "--", "r"],
        ["entail", "--json", "--premise", "-r | -(s1 | s2)", "--conclusion", "-s1 | -r"],
        ["entail", "--json", "--premise", "-r | -s1", "--conclusion", "-r | -s2"],
        ["modal", "--json", "[r](p->q) -> ([r]p -> [r]q)"],
        ["modal", "--json", "p -> [r]p"],
        ["check-model", "r", str(model)],
        ["check-model", "1", str(model)],
    ]


def test_deciding_without_verify_needs_no_numpy(cli_argvs):
    argvs = json.dumps(cli_argvs)
    ordinary = json.loads(python("-c", CLI_RUNS, "ordinary", argvs))
    blocked = json.loads(python("-c", CLI_RUNS, "blocked", argvs))
    assert not ordinary["numpy"] and not blocked["numpy"]
    assert not ordinary["dataclasses"]
    assert blocked["runs"] == ordinary["runs"]
    assert [code for code, _ in ordinary["runs"]] == [0, 1, 0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("code", [
    "from dualtab.cli import main; assert main(['prove', '--json', '--verify', 'r | -r']) == 0",
    "from dualtab import brute_force_countermodel",
    "from dualtab.frontends import kripke_countermodel, parse_modal\n"
    "assert kripke_countermodel(parse_modal('p'), 1) is not None",
], ids=["verify", "package-export", "kripke-search"])
def test_an_oracle_loads_numpy(code):
    assert loads_numpy(code)
