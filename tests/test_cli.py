import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualtab
from conftest import build_corpus, command_lines, family_text
from dualtab.cli import _COMMANDS, _OPTIONS, _print_help, _read_argv, _tree_lines, main
from dualtab.errors import EngineInvariantError, ParseError
from dualtab.terms import MAX_DEPTH, render_term
from reference import _build_parser

SRC = str(Path(dualtab.__file__).resolve().parent.parent)


def run_process(*args):
    """Run ``python`` with ``args`` and this checkout's sources first on
    the import path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProve:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "prove", "r | -r")
        assert code == 0
        assert out.splitlines()[0] == "valid"
        assert "*closed*" in out  # the proof tree is shown

    def test_invalid_emits_countermodel(self, capsys):
        code, out, _ = run(capsys, "prove", "r", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "invalid"
        assert data["countermodel"]["universe"] == ["x", "y"]
        assert data["proof"] is None

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "prove", "r &")
        assert code == 2
        assert "offset 3" in err

    def test_fragment_violation(self, capsys):
        code, _, err = run(capsys, "prove", "r ^")
        assert code == 3
        assert "converse" in err

    def test_resource_exhausted(self, capsys):
        code, _, err = run(capsys, "prove", "(r | s) | (p | q)", "--max-steps", "1")
        assert code == 4
        assert "cap" in err

    def test_verify_proof(self, capsys):
        code, out, _ = run(capsys, "prove", "r | -r", "--json", "--verify")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_verify_countermodel(self, capsys):
        code, out, _ = run(capsys, "prove", "1 ; (r ; 1)", "--json", "--verify")
        assert code == 1
        assert json.loads(out)["verified"] is True

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "prove", "r | -r", "--trace")
        assert code == 0
        assert "[trace]" in err
        assert "[trace]" not in out

    def test_json_is_reproducible(self, capsys):
        _, first, _ = run(capsys, "prove", "1 ; ((r & s) ; 1)", "--json")
        _, second, _ = run(capsys, "prove", "1 ; ((r & s) ; 1)", "--json")
        assert first == second

    def test_leading_dash_term_after_separator(self, capsys):
        code, out, _ = run(capsys, "prove", "--json", "--", "-(r ; 1)")
        assert code == 1
        assert json.loads(out)["verdict"] == "invalid"


class TestEntail:
    def test_valid_entailment(self, capsys):
        code, out, _ = run(capsys, "entail",
                           "--premise", "-r | -(s1 | s2)",
                           "--conclusion", "-s1 | -r")
        assert code == 0

    def test_invalid_entailment_with_verification(self, capsys):
        code, out, _ = run(capsys, "entail", "--json", "--verify",
                           "--premise", "-r | -s1",
                           "--conclusion", "-r | -s2")
        assert code == 1
        data = json.loads(out)
        assert data["verified"] is True
        assert data["countermodel"] is not None
        assert "term" in data

    def test_encoder_rejection(self, capsys):
        code, _, err = run(capsys, "entail", "--premise", "r | s",
                           "--conclusion=-r")
        assert code == 3
        assert "Boolean" in err


class TestModal:
    def test_distribution_axiom(self, capsys):
        code, out, _ = run(capsys, "modal", "[r](p->q) -> ([r]p -> [r]q)",
                           "--json", "--verify")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "valid"
        assert data["kripke"] == {"refuted": False, "worlds": 3}

    def test_invalid_formula(self, capsys):
        code, out, _ = run(capsys, "modal", "p -> [r]p", "--json", "--verify")
        assert code == 1
        data = json.loads(out)
        assert data["verified"] is True
        assert data["kripke"]["refuted"] is True

    def test_both_oracle_notes_are_kept(self, capsys):
        # a valid formula over the budget of both oracles: each says why
        code, out, _ = run(capsys, "modal", family_text("modal_dist", 3),
                           "--json", "--verify")
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is None and data["kripke"] is None
        assert data["verify_note"] == (
            "7 variables over a universe of 3 exceed the oracle budget of 28 bits; "
            "1 relations and 6 propositions over 3 worlds exceed the oracle "
            "budget of 26 bits")

    def test_text_mode_prints_the_note(self, capsys):
        # the note follows ``verified:`` on a line of its own; a verdict
        # that both oracles check has no note line
        code, out, _ = run(capsys, "modal", family_text("modal_dist", 3),
                           "--verify")
        assert code == 0
        lines = out.splitlines()
        at = lines.index("verified: None")
        assert lines[at + 1] == (
            "verify_note: 7 variables over a universe of 3 exceed the oracle "
            "budget of 28 bits; 1 relations and 6 propositions over 3 worlds "
            "exceed the oracle budget of 26 bits")
        code, out, _ = run(capsys, "modal", "p -> [r]p", "--verify")
        assert code == 1 and "verified: True" in out.splitlines()
        assert "verify_note" not in out

    def test_kripke_note_alone(self, capsys):
        # a countermodel is checked without the finite-model oracle; the
        # Kripke oracle finds no refutation at one world and refuses two
        formula = "p -> [r1][r2][r3][r4][r5][r6][r7]p"
        code, out, _ = run(capsys, "modal", formula, "--json", "--verify")
        assert code == 1
        data = json.loads(out)
        assert data["verified"] is True and data["kripke"] is None
        assert data["verify_note"] == (
            "7 relations and 1 propositions over 2 worlds exceed the oracle "
            "budget of 26 bits")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "modal", "[r](p &")
        assert code == 2

    def test_bad_program_reports_one_offset(self, capsys):
        # the program's own offset is not left inside the message
        code, _, err = run(capsys, "modal", "--", "[r | ?]p")
        assert code == 2
        assert err.splitlines() == [
            "error: bad program term: unexpected character '?' at offset 5"]

    def test_undecodable_byte_in_a_program_is_a_parse_error(self, capsys):
        # a POSIX argv decodes an undecodable byte to a lone surrogate,
        # which has no UTF-8 encoding of its own
        code, out, err = run(capsys, "modal", "--", "<r\udcff>p")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: bad program term: unexpected character '\\udcff' at offset 2"]

    def test_undecodable_byte_in_a_fresh_process(self):
        proc = run_process("-m", "dualtab", "modal", "--", b"<r\xff>p")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: bad program term: ")


class TestCheckModel:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "universe": ["x", "y"],
            "relations": {"r": [["x", "x"]]},
            "valuation": {"x": "x", "y": "y"},
        }))
        return str(path)

    def test_falsified(self, capsys, model_file):
        code, out, _ = run(capsys, "check-model", "r", model_file)
        assert code == 0
        assert out.strip() == "falsified"

    def test_satisfied(self, capsys, model_file):
        code, out, _ = run(capsys, "check-model", "1", model_file)
        assert code == 1
        assert out.strip() == "satisfied"

    def test_explicit_endpoints(self, capsys, model_file):
        code, _, _ = run(capsys, "check-model", "x r x", model_file)
        assert code == 1

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check-model", "r", str(bad))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "check-model", "r", "/nonexistent/model.json")
        assert code == 2

    def test_uninterpreted_variable_is_one_warning_line(self, model_file):
        # a fresh process: pytest captures warnings raised in its own
        proc = run_process("-m", "dualtab", "check-model", "s", model_file)
        assert proc.returncode == 0
        assert proc.stdout == "falsified\n"
        assert proc.stderr == (
            "warning: variable 's' has no interpretation; treating as empty\n")

    @pytest.mark.parametrize("universe", ["ab", [1, 2]])
    def test_universe_must_be_a_list_of_names(self, tmp_path, universe):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"universe": universe, "relations": {},
                                    "valuation": dict(zip("xy", universe))}))
        proc = run_process("-m", "dualtab", "check-model", "r", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: malformed model file:")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("fields", [
        {"relations": {"r": ["ab"]}},  # a string is not a pair
        {"relations": []},
        {"valuation": [["x", "a"], ["y", "b"]]},
    ], ids=["string-pair", "relations-list", "valuation-list"])
    def test_malformed_relations_or_valuation(self, tmp_path, fields):
        data = {"universe": ["a", "b"], "relations": {"r": [["a", "b"]]},
                "valuation": {"x": "a", "y": "b"}, **fields}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        proc = run_process("-m", "dualtab", "check-model", "r", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: malformed model file:")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("content, problem", [
        ("[" * 3000 + "]" * 3000, "nested deeper than the JSON decoder allows"),
        ("[1, 2]", "the model must be an object"),
        ("NaN", "the model must be an object"),
        ("{}", "the model has no 'universe'"),
        (json.dumps({"universe": ["a"], "relations": {}, "valuation": {"x": ["a"]}}),
         "valuation maps 'x' to no element name"),
    ], ids=["deep", "list", "nan", "no-keys", "list-value"])
    def test_malformed_file_is_one_error_line(self, tmp_path, content, problem):
        # a fresh process, as the console runs it: the decoder recurses
        # from the CLI's own stack depth, not from under pytest's frames
        path = tmp_path / "model.json"
        path.write_text(content)
        proc = run_process("-m", "dualtab", "check-model", "x r y", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: malformed model file: {problem}\n"


class TestEndToEnd:
    def test_countermodel_feeds_check_model(self, capsys, tmp_path):
        # a countermodel emitted by prove must falsify the very same term
        # when fed back through check-model
        code, out, _ = run(capsys, "prove", "1 ; ((r | s) ; 1)", "--json")
        assert code == 1
        countermodel = json.loads(out)["countermodel"]
        path = tmp_path / "cm.json"
        path.write_text(json.dumps(countermodel))
        code, out, _ = run(capsys, "check-model", "1 ; ((r | s) ; 1)", str(path))
        assert code == 0
        assert out.strip() == "falsified"

    def test_output_independent_of_hash_seed(self, tmp_path):
        import subprocess
        import sys

        outputs = []
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "dualtab.cli", "prove",
                 "1 ; ((r | s) ; -((p & q) ; 1))", "--json"],
                capture_output=True, text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            )
            assert proc.returncode == 1
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestFragmentAndSimplify:
    def test_fragment_accept(self, capsys):
        code, out, _ = run(capsys, "fragment", "1 ; (((r1 | s) & r2) ; 1)")
        assert code == 0
        assert out.strip() == "accepted"

    def test_fragment_reject(self, capsys):
        code, out, _ = run(capsys, "fragment", "(-r) ; s")
        assert code == 3
        assert "rejected" in out

    def test_fragment_parse_error(self, capsys):
        code, _, _ = run(capsys, "fragment", "r &")
        assert code == 2

    def test_simplify(self, capsys):
        code, out, _ = run(capsys, "simplify", "1 & (p | -1)")
        assert code == 0
        assert out.strip() == "p"

    def test_simplify_json(self, capsys):
        code, out, _ = run(capsys, "simplify", "(1 | p) ; q", "--json")
        assert code == 0
        assert json.loads(out) == {"term": "(1 ; q)"}


def argparse_reading(parser, argv):
    """What the argparse ``parser`` makes of ``argv``: ``("ok", values)``,
    ``("help", command)`` (None for dualtab's own help) or ``("error",)``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return "ok", vars(parser.parse_args(argv))
    except SystemExit as exc:
        if exc.code:
            return ("error",)
    word = out.getvalue().split()[2]  # "usage: dualtab [-h] ..." or "usage: dualtab prove ..."
    return "help", None if word == "[-h]" else word


def table_reading(argv):
    """The same for ``cli._read_argv``."""
    try:
        handler, args = _read_argv(argv)
    except ParseError:
        return ("error",)
    if handler is _print_help:
        return "help", args
    return "ok", vars(args)


class TestCommandLine:
    def test_agrees_with_argparse(self, capsys):
        # the parser the table replaced reads every generated line as the
        # table does, and each line the table refuses is one line of
        # stderr and exit 2; the lines come from tests/corpus.py, whose
        # forms Python 3.10 to 3.13 read alike
        parser = _build_parser()
        outcomes = collections.Counter()
        for argv in command_lines(2024, 3000):
            reading = table_reading(argv)
            assert reading == argparse_reading(parser, argv), argv
            outcomes[reading[0]] += 1
            if reading[0] == "ok":
                continue
            code = main(argv)
            out, err = capsys.readouterr()
            if reading[0] == "help":
                assert (code, out[:15], err) == (0, "usage: dualtab ", ""), argv
            else:
                assert (code, out, err[:7], err.count("\n")) == (2, "", "error: ", 1), argv
        assert min(outcomes.values()) >= 100, outcomes

    @pytest.mark.parametrize("argv, values", [
        (["prove", "-r | s"], {"term": "-r | s"}),
        (["prove", "-1"], {"term": "-1"}),
        (["prove", "--", "-r"], {"term": "-r"}),
        (["prove", "--", "-h"], {"term": "-h"}),
        (["prove", "r", "--js", "--max", "5", "--max-steps=7", "--json"],
         {"term": "r", "json": True, "max_steps": 7}),
        (["modal", "--o=1", "p", "--v", "--t"],
         {"formula": "p", "oracle_size": 1, "verify": True, "trace": True}),
        (["entail", "--premise", "-r | -s1", "--p=-s", "--conclusion=-r", "--c", "r"],
         {"premise": ["-r | -s1", "-s"], "conclusion": "r"}),
        (["check-model", "x r y", "--", "m.json"],
         {"formula": "x r y", "model_file": "m.json"}),
    ], ids=["space", "negative", "separator", "separated-h", "prefixes", "modal",
            "premises", "check-model"])
    def test_accepted_forms(self, argv, values):
        status, args = table_reading(argv)
        assert status == "ok" and args.items() >= values.items()
        assert argparse_reading(_build_parser(), argv) == (status, args)

    @pytest.mark.parametrize("argv, message", [
        ([], "expected a command: prove, entail, modal, check-model, fragment, "
             "simplify"),
        (["prov", "r"], "unknown command 'prov'"),
        (["prove"], "prove expects TERM"),
        (["entail", "--premise", "r"], "entail expects --conclusion"),
        (["prove", "r", "s\nt"], "unrecognized arguments: 's\\nt'"),
        (["prove", "-r"], "unrecognized arguments: '-r'"),
        (["fragment", "--verify", "r"], "unrecognized arguments: '--verify'"),
        (["prove", "--max-steps", "0", "r"],
         "--max-steps takes a whole number at least 1, not '0'"),
        (["prove", "--oracle-size=5", "r"],
         "--oracle-size takes a whole number from 1 to 4, not '5'"),
        (["prove", "--max-steps", "x", "r"],
         "--max-steps takes a whole number at least 1, not 'x'"),
        (["prove", "r", "--max-steps"], "--max-steps expects N"),
        (["prove", "--json=1", "r"], "--json takes no value"),
        (["prove", "-hx", "r"], "-h takes no value, not '-hx'"),
    ], ids=["nothing", "unknown-command", "missing", "required-option", "extra",
            "dash-term", "other-commands-option", "max-steps", "oracle-size",
            "not-a-number", "no-value", "flag-value", "h-value"])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, command", [
        (["-h"], None), (["--help"], None), (["--x", "--he"], None),
        (["prove", "-h"], "prove"), (["prove", "r", "--h", "--max-steps", "0"], "prove"),
        (["--json", "entail", "-hh"], "entail"), (["check-model", "-h"], "check-model"),
    ], ids=["h", "help", "prefix", "prove", "before-an-error", "entail-hh",
            "check-model"])
    def test_help_comes_from_the_tables(self, capsys, argv, command):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if command is None:
            assert lines[0] == "usage: dualtab COMMAND [-h] [OPTIONS] ARGUMENTS"
            for name, row in _COMMANDS.items():
                assert name is None or f"  {name}  " in out and row[3] in out
        else:
            assert lines[0].startswith(f"usage: dualtab {command} [OPTIONS]")
            for name in _COMMANDS[command][2]:
                assert f"  --{name} " in out and _OPTIONS[name][3] in out

    def test_help_needs_no_docstrings(self):
        # ``python -OO`` drops docstrings; the help is built from the tables
        runs = [run_process(*flags, "-m", "dualtab", "entail", "-h") for flags in ([], ["-OO"])]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout and "--premise TERM" in runs[0].stdout


class TestOutputBytes:
    def test_stdout_bytes_are_pinned(self, capsys):
        # the exit code and exact stdout of every command that prints a
        # verdict, a tree or a term, in both output modes: a change to how
        # the CLI builds its output must leave every byte as it is
        runs = [["modal", "--", family_text(name, 4)]
                for name in ("modal_dist", "kdist", "branching", "cycle")]
        corpus = [render_term(t) for t in build_corpus()]
        runs += [["prove", "--", text] for text in corpus[::5]]
        runs += [[command, "--", text] for text in corpus[::25]
                 for command in ("fragment", "simplify")]
        runs += [["fragment", "--", text] for text in ("(-r) ; s", "r^")]
        digest = hashlib.sha256()
        for argv in runs:
            for mode in ([], ["--json"]):
                code = main([argv[0], *mode, *argv[1:]])
                out = capsys.readouterr().out
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "1a92752aac4de5f3183468072190690948a023cab22af1be4064112c5f7424d6")


    def test_deep_proof_tree_prints_in_text_mode(self):
        # a branch of 2 000 nodes is deeper than the interpreter's stack
        n = 2000
        nodes = [{"id": i, "formulas": [["x", "r", "y"]] if i else [],
                  "rule": "union" if i else None, "closed": i == n - 1,
                  "children": [i + 1] if i < n - 1 else []} for i in range(n)]
        lines = _tree_lines(nodes)
        assert lines[:2] == ["(0) {}", "  (1) [union] {x r y}"]
        assert lines[-1] == "  " * (n - 1) + f"({n - 1}) [union] {{x r y}}  *closed*"
        assert len(lines) == n


class TestRobustness:
    def test_closed_stdout_ends_the_output_not_the_command(self):
        # a reader that stops after a few bytes, as ``| head -c 100`` does;
        # the proof tree is larger than a pipe's buffer, so the command
        # writes into the closed pipe
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = ["-m", "dualtab", "modal", "--json", "--", family_text("modal_dist", 8)]
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1)
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv, code", [
        (["prove", "--json", "--", "r | -r"], 0),
        (["prove", "--", "r"], 1),
        (["check-model", "--", "r", "MODEL"], 0),
    ])
    def test_stdout_closed_before_any_output(self, tmp_path, argv, code, unbuffered):
        # the pipe's reader is gone before the command starts, so its first
        # write fails, whether stdout is buffered or not
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"universe": ["x", "y"], "relations": {"r": []},
                                     "valuation": {"x": "x", "y": "y"}}))
        argv = [str(model) if a == "MODEL" else a for a in argv]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        flags = ["-u"] if unbuffered else []
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, *flags, "-m", "dualtab", *argv],
                                  stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, b"")

    @pytest.mark.parametrize("argv, code, first_line", [
        (["prove", "--trace", "--", "r | -r"], 0, b"valid"),
        (["prove", "--", "r &"], 2, b""),
    ], ids=["trace", "error"])
    def test_stderr_closed_before_any_output(self, argv, code, first_line):
        # the trace or the error line is the first write to stderr, and it
        # fails; the command still exits with its own code
        env = dict(os.environ, PYTHONPATH=SRC)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "dualtab", *argv],
                                  stdout=subprocess.PIPE, stderr=write, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stdout.split(b"\n")[0]) == (code, first_line)

    @pytest.mark.parametrize("term", ["(" * 300 + "r" + ")" * 300,
                                      "-" * 3000 + "r"])
    def test_deep_nesting_is_a_parse_error(self, term):
        proc = run_process("-m", "dualtab", "prove", "--json", "--", term)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "error: nesting deeper than 100 levels at offset 100"]

    @pytest.mark.parametrize("formula, offset", [
        ("~" * 3000 + "p", 100),
        ("(" * 400 + "p" + ")" * 400, 100),
        ("[r]" * 3000 + "p", 300),
        (" -> ".join(["p"] * 3000), 502),
    ], ids=["negations", "parentheses", "boxes", "implications"])
    def test_deep_modal_nesting_is_a_parse_error(self, formula, offset):
        proc = run_process("-m", "dualtab", "modal", "--json", "--", formula)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            f"error: nesting deeper than 100 levels at offset {offset}"]

    def test_modal_nesting_at_the_limit_is_decided(self, capsys):
        # Each operand of the three implications nests exactly 100 deep.
        deepest = "~" * 49 + "<r>" * 49 + "p"
        formula = " & ".join([f"({deepest} -> {deepest})"] * 3)
        code, _, err = run(capsys, "modal", "--", formula)
        assert code == 0
        assert err == ""

    def test_engine_invariant_error_exits_5(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise EngineInvariantError("composition step without progress")

        monkeypatch.setattr("dualtab.engine.run_procedure", broken)
        code, out, err = run(capsys, "prove", "r")
        assert code == 5
        assert out == ""
        assert err == ("internal error: EngineInvariantError: "
                       "composition step without progress\n")

    def test_unexpected_failure_exits_5(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("dualtab.engine.run_procedure", broken)
        code, _, err = run(capsys, "prove", "r")
        assert code == 5
        assert err.startswith("internal error: RecursionError:")
        assert len(err.splitlines()) == 1


def chain(op, n, atom="r{}"):
    """``n`` atoms joined by ``op``: a left-associated chain ``n`` deep."""
    return f" {op} ".join(atom.format(i) for i in range(n))


def constant_chain(op, depth):
    """A left-associated ``op`` chain ``depth`` deep whose innermost
    operand is the constant that ``simplify_ones`` removes: ``-1`` (two
    levels) under ``|``, ``1`` under ``&``."""
    if op == "|":
        return chain(op, depth - 1, "r{}").replace("r0", "-1", 1)
    return chain(op, depth, "r{}").replace("r0", "1", 1)


def deep_argv(command, op, n, tmp_path, flags=()):
    text = chain(op, n)
    if command == "entail":
        return ["entail", *flags, "--conclusion", "r0", f"--premise={chain(op, n, '-r{}')}"]
    if command == "modal":
        return ["modal", *flags, "--", chain(op, n, "p{}")]
    if command == "modal-program":
        return ["modal", "--", f"<{text}>p"]
    if command == "check-model":
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "universe": ["a"],
            "relations": {f"r{i}": [["a", "a"]] for i in range(n)},
            "valuation": {"x": "a", "y": "a"},
        }))
        return ["check-model", f"x {text} y", str(model)]
    return [command, *flags, "--", text]


def deep_cases():
    commands = ["prove", "prove --verify", "entail", "modal", "modal --verify",
                "modal-program", "fragment", "simplify", "check-model"]
    for spec in commands:
        ops = ("|", "&", "->") if spec.split()[0] == "modal" else ("|", "&", ";")
        for op in ops:
            for n in (100, 1000, 10000):
                yield pytest.param(spec, op, n, id=f"{spec}-{op}-{n}")


class TestDeepInput:
    """Long flat chains end in a documented exit code with one line of
    diagnostics, never an internal error."""

    @pytest.mark.parametrize("spec, op, n", deep_cases())
    def test_chain_ends_in_a_documented_exit(self, capsys, tmp_path, spec, op, n):
        command, *flags = spec.split()
        code, _, err = run(capsys, *deep_argv(command, op, n, tmp_path, flags))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err and len(err.splitlines()) <= 1
        if code == 2:
            assert err.startswith("error: ")

    def test_many_premises(self, capsys):
        argv = ["entail", "--conclusion", "r0"] + [f"--premise=-r{i}" for i in range(1000)]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    # A chain of n atoms is n deep as a term; the entailment encoding adds
    # one level over the conclusion, and the modal translation one over
    # the formula.
    @pytest.mark.parametrize("op", ["|", "&"])
    @pytest.mark.parametrize("command, extra", [("prove", 0), ("entail", 1), ("modal", 1)])
    def test_depth_bound_is_exact(self, capsys, tmp_path, command, extra, op):
        def argv(depth):
            n = depth - extra
            if command == "entail":
                return ["entail", "--premise=-r", "--conclusion", chain(op, n)]
            return deep_argv(command, op, n, tmp_path)

        code, _, err = run(capsys, *argv(MAX_DEPTH))
        assert code in (0, 1) and err == ""
        code, _, err = run(capsys, *argv(MAX_DEPTH + 1))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # The same bound where ``simplify_ones`` has to rebuild every level:
    # the innermost operand is ``-1`` under ``|`` and ``1`` under ``&``.
    @pytest.mark.parametrize("op", ["|", "&"])
    @pytest.mark.parametrize("command, extra", [("prove", 0), ("entail", 1)])
    def test_depth_bound_is_exact_over_a_constant(self, capsys, command, extra, op):
        def argv(depth):
            text = constant_chain(op, depth - extra)
            if command == "entail":
                return ["entail", "--premise=-r", "--conclusion", text]
            return ["prove", "--", text]

        code, _, err = run(capsys, *argv(MAX_DEPTH))
        assert code in (0, 1) and err == ""
        code, _, err = run(capsys, *argv(MAX_DEPTH + 1))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_long_union_in_a_fresh_process(self):
        proc = run_process("-m", "dualtab", "prove", "--", chain("|", 480))
        assert proc.returncode == 1
        assert proc.stderr == ""
