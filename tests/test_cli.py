"""End-to-end command-line behavior: exit codes, files, reports, JSON."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
import time
from collections import Counter

import pytest

import inqcheck
from inqcheck import cli
from inqcheck.model import CodecError, ValidationError, read_model_file, write_model_file
from inqcheck.qbf import Qbf, Var, FORALL, parse_qbf, random_qbf, render_qbf
from inqcheck.reduction import reduce_tqbf
from inqcheck.syntax import parse_formula

from conftest import random_model
from test_syntax import doubling_chain, tree_text

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture
def demo_file(tmp_path, demo_model):
    path = tmp_path / "demo.im"
    path.write_text(write_model_file(demo_model))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_supported(self, demo_file, capsys):
        assert cli.main(["check", demo_file, "110", "--formula", "p1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "SUPPORTED"
        assert "nodes visited:" in out

    def test_empty_state_always_supported(self, demo_file, capsys):
        assert cli.main(["check", demo_file, "000", "--formula", "bot"]) == 0
        assert "SUPPORTED" in capsys.readouterr().out

    def test_not_supported(self, demo_file, capsys):
        code = cli.main(["check", demo_file, "110", "--formula", "p0 ior not p0"])
        assert code == 1
        assert "NOT-SUPPORTED" in capsys.readouterr().out

    def test_formula_file(self, demo_file, tmp_path, capsys):
        fpath = write(tmp_path, "f.formula", "box p1\n")
        assert cli.main(["check", demo_file, "111", "--formula-file", fpath]) == 1

    def test_naive_engine_flag(self, demo_file, capsys):
        assert cli.main(["check", demo_file, "100", "--formula", "wbox p0", "--naive"]) == 0

    def test_json_keys(self, demo_file, capsys):
        assert cli.main(["check", demo_file, "110", "--formula", "p1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "SUPPORTED"
        assert isinstance(payload["nodes_visited"], int)

    def test_parse_error_diagnostic(self, demo_file, capsys):
        code = cli.main(["check", demo_file, "110", "--formula", "p0 ior or p1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "offset" in err

    def test_definitions(self, demo_file, capsys):
        text = "let q = ?p0;\nlet r = (q -> ?p1);\nr & wbox r"
        codes = []
        for state in ("100", "010", "001", "110", "111"):
            code = cli.main(["check", demo_file, state, "--formula", text])
            assert code == cli.main(["check", demo_file, state, "--formula", text, "--naive"])
            codes.append(code)
        assert set(codes) == {0, 1}

    @pytest.mark.parametrize(
        "text", ["let a = p0; b", "let a = p0; let a = p1; a", "let a p0; a", "p0 let a = p1; a", "let p1 = p0; p1"]
    )
    def test_definition_error_is_one_line(self, demo_file, capsys, text):
        assert cli.main(["check", demo_file, "110", "--formula", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: formula argument: parse error at offset ")

    @pytest.mark.parametrize("state", ["110", "101"])
    def test_doubling_chain_is_answered_at_once(self, demo_file, tmp_path, capsys, state):
        # d60 is the conjunction of 2^60 copies of ?p0, so it is ?p0
        fpath = write(tmp_path, "chain.formula", doubling_chain("?p0", 60))
        start = time.perf_counter()
        code = cli.main(["check", demo_file, state, "--formula-file", fpath])
        assert time.perf_counter() - start < 1
        assert code == cli.main(["check", demo_file, state, "--formula", "?p0"])
        assert capsys.readouterr().err == ""

    def test_atom_index_past_64_bits_is_a_query_error(self, demo_file, capsys):
        code = cli.main(["check", demo_file, "110", "--formula", "p99999999999999999999 & ?p0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: query: atom index 99999999999999999999 out of range, model has 2 atoms"
        ]

    def test_unused_definitions_are_not_checked(self, demo_file, capsys):
        # p9 is past the model's atoms, but nothing uses it
        text = "let a = p9; let b = ?p0; b & p1"
        for state in ("100", "110", "111"):
            code = cli.main(["check", demo_file, state, "--formula", text])
            assert code == cli.main(["check", demo_file, state, "--formula", "?p0 & p1"])
            assert code == cli.main(["check", demo_file, state, "--formula", text, "--naive"])

    def test_missing_model_file(self, tmp_path, capsys):
        code = cli.main(["check", str(tmp_path / "nope.im"), "1", "--formula", "p0"])
        assert code == 2
        assert "nope.im" in capsys.readouterr().err

    def test_state_width_mismatch(self, demo_file, capsys):
        assert cli.main(["check", demo_file, "11", "--formula", "p0"]) == 2

    def test_usage_error(self, demo_file):
        assert cli.main(["check", demo_file, "110"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{demo}", "-1x", "--formula", "p0"],
            ["check", "{demo}", "110"],
            ["verify", "--random", "x"],
            ["frobnicate"],
            [],
        ],
    )
    def test_usage_error_is_one_line(self, demo_file, capsys, argv):
        assert cli.main([word.format(demo=demo_file) for word in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestReduce:
    def test_emitted_files(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        stem = str(tmp_path / "out")
        assert cli.main(["reduce", qpath, stem]) == 0
        assert (tmp_path / "out.state").read_text().strip() == "11"
        emitted = parse_formula((tmp_path / "out.formula").read_text())
        expected = reduce_tqbf(parse_qbf("exists x0 : x0")).formula
        assert emitted == expected
        model = read_model_file((tmp_path / "out.im").read_text())
        assert model.n == 2 and model.l == 2

    def test_check_on_emitted_files_agrees(self, tmp_path, capsys):
        qpath = write(
            tmp_path, "t.qbf", "forall x0 exists x1 : (x0 | x1) & (~x0 | ~x1)\n"
        )
        stem = str(tmp_path / "inst")
        assert cli.main(["reduce", qpath, stem]) == 0
        capsys.readouterr()
        code = cli.main(
            [
                "check",
                f"{stem}.im",
                (tmp_path / "inst.state").read_text().strip(),
                "--formula-file",
                f"{stem}.formula",
            ]
        )
        assert code == 0

    def test_formula_file_holds_the_shared_form(self, tmp_path, capsys):
        theta = random_qbf(21, 7, 110)
        qpath = write(tmp_path, "t.qbf", render_qbf(theta) + "\n")
        stem = str(tmp_path / "inst")
        assert cli.main(["reduce", qpath, stem]) == 0
        text = (tmp_path / "inst.formula").read_text()
        assert text.startswith("let f0 = ")
        instance = reduce_tqbf(theta)
        assert parse_formula(text) == instance.formula
        assert len(text) < len(tree_text(instance.formula))
        capsys.readouterr()
        state = (tmp_path / "inst.state").read_text().strip()
        code = cli.main(["check", f"{stem}.im", state, "--formula-file", f"{stem}.formula"])
        assert code == cli.main(["qbf-eval", qpath])

    # sha256 of the .im, .state and .formula files that reduce writes for
    # random_qbf(l, l, 120), as the compiler wrote them when it built
    # formula objects: building rows must write the same bytes
    PINNED = {
        1: ("ed9c072fcb87e400e56211ed8af0c3dfe87fae974a5eb85410bb7ac0022434e4",
            "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
            "e7f435d076e14bddc588e804a42119501525dfb94325080740c049fb567e9617"),
        2: ("f2432065f3b1356fc0b181fd076dd96e3a0427cf3929f800f3cf31d88bd70c5b",
            "49ca5d81054fdd20572294b9350b605d05e0df91da09a46fb8bde7fd6c1c172d",
            "b7cd3fe3cd851892ee1e286d61698eae2b4fbec8e43648c45282ac34db9d5136"),
        3: ("955d8099a2e13268583529336be6d1878c668b67b9ed684bed87fd71396cde2e",
            "9d272f1f3e92f7c5efdcfdda0ab92facccd98c340be8be09064060503fd167e4",
            "f63008c624492eabf9be4a74a076d5e71e876981084da45dc91bfae021c98f2a"),
        4: ("8ed896e47de257f822a4ddf5908ad1b8242c35e051ab7bf6d98cc850e37e4a2f",
            "3bdd05ce73a4357f07f04cc620266db2cfb793ded5eda88350a0b59712990f5e",
            "d314d0e7dc3ad3b15225c523c1cdcb12773007109972d65f110cd4dcfab4a409"),
        5: ("0004bd893b169c20aec819ef5c07ebd8d585614cd48afc9fc56ab94c1be471a1",
            "63d19a99ef7db94ddbb1e4a5083062226551cd8197312e3aa0aa7c369ac3e458",
            "521b0fb15ac5a5f432345e2a791d4814eb1fcc7c0c7b5d115293b0f255123e56"),
        6: ("fb9af7ef6bdfbf0a2d5cbd82a1484fe97c345ff4b175f2c097277127a919b869",
            "005284d7c6b2fca64f102c34ba87ec2c7a852a9e4b279958444706506231d5d1",
            "b7b08c448486e809e3b1c9763d1191102addbc03c6dbf0cd55b3350054b9ce01"),
        7: ("271bd0b34b79a89b9b17ba0049ee73518032c0033c4b2585d31313419933a08b",
            "66685461d984c40c129338875e6ed59ba8359cf385a0e8540b363d79c4b33071",
            "9a4b1e6844aee7e756610f2a5b01260406960f6f585297b1730c64fc9381cf7d"),
        8: ("a2ec0d98ecc8c39411bfbbbfc77ee9e4e03410875f120ce5567d32e56d152e5f",
            "798f08c572a989b81d24d6704a5cfb6740ccf9a62caee843f418bc08d3c73c6a",
            "0dbee8bb2b11650e56b39cbfcd22568e4d3771c8efb2584fde479c239632136f"),
        9: ("d56f2e65790e6400b14265c62d666607c3b4e962f34c0d6002e9edf3e238858a",
            "002edf1a0c2d9bf138ae5c2d4c036073dcc3d45da7936bc8a7db16943d8720e6",
            "13fd381cb3a5816c8ebe269b280ab1a5cbb9708ff8bfa425da190e033b8711a6"),
    }

    @pytest.mark.parametrize("l", sorted(PINNED))
    def test_files_are_pinned(self, tmp_path, capsys, l):
        qpath = write(tmp_path, "t.qbf", render_qbf(random_qbf(l, l, 120)) + "\n")
        stem = str(tmp_path / "inst")
        assert cli.main(["reduce", qpath, stem]) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / f"inst{suffix}").read_bytes()).hexdigest()
            for suffix in (".im", ".state", ".formula")
        )
        assert digests == self.PINNED[l]

    def test_report_printed(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        assert cli.main(["reduce", qpath, str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "l: 1" in out
        assert "translated size:" in out

    def test_unclosed_input(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0 & x1\n")
        assert cli.main(["reduce", qpath, str(tmp_path / "o")]) == 2

    # reduce writes its outputs over any old bytes in place and then cuts
    # them to length, rather than truncating first
    SUFFIXES = (".im", ".state", ".formula")

    def reduce_into(self, tmp_path, l, stem):
        qpath = write(tmp_path, f"t{l}.qbf", render_qbf(random_qbf(l, l, 120)) + "\n")
        assert cli.main(["reduce", qpath, str(tmp_path / stem)]) == 0
        return [(tmp_path / f"{stem}{suffix}").read_bytes() for suffix in self.SUFFIXES]

    def test_overwrite_leaves_no_stale_tail(self, tmp_path, capsys):
        big = self.reduce_into(tmp_path, 9, "inst")
        small = self.reduce_into(tmp_path, 1, "inst")
        assert small == self.reduce_into(tmp_path, 1, "fresh")
        assert all(len(s) < len(b) for s, b in zip(small, big))

    @pytest.mark.skipif(os.name != "posix", reason="needs symlinks and /dev/null")
    def test_formula_linked_to_dev_null(self, tmp_path, capsys):
        # a character device cannot be cut to length, and need not be
        link = tmp_path / "inst.formula"
        link.symlink_to(os.devnull)
        assert self.reduce_into(tmp_path, 3, "inst")[2] == b""
        assert os.readlink(link) == os.devnull

    @pytest.mark.skipif(os.name != "posix", reason="needs symlinks")
    def test_symlinked_output_is_written_through(self, tmp_path, capsys):
        target = tmp_path / "target.im"
        target.write_bytes(b"#" * 100_000)
        link = tmp_path / "inst.im"
        link.symlink_to(target)
        written = self.reduce_into(tmp_path, 2, "inst")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == written[0] == self.reduce_into(tmp_path, 2, "fresh")[0]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_new_output_mode_follows_the_umask(self, tmp_path, capsys):
        old = os.umask(0o027)
        try:
            self.reduce_into(tmp_path, 1, "inst")
        finally:
            os.umask(old)
        for suffix in self.SUFFIXES:
            assert (tmp_path / f"inst{suffix}").stat().st_mode & 0o777 == 0o666 & ~0o027

    @pytest.mark.parametrize(
        "stem",
        ["", "dir" + os.sep, "dir" + os.sep + ".", ".."],
        ids=["empty", "trailing-separator", "dot", "dotdot"],
    )
    def test_stem_naming_no_file_writes_nothing(self, tmp_path, capsys, monkeypatch, stem):
        (tmp_path / "dir").mkdir()
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["reduce", qpath, stem]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: out_stem {stem!r}: must end in a file name"]
        assert sorted(os.listdir(tmp_path)) == ["dir", "t.qbf"]
        assert os.listdir(tmp_path / "dir") == []

    def test_output_that_cannot_be_opened_changes_no_other(self, tmp_path, capsys):
        # every output is opened before any is written, so an old instance
        # under the stem keeps its bytes when one of its files cannot be
        old = self.reduce_into(tmp_path, 3, "inst")
        (tmp_path / "inst.state").unlink()
        (tmp_path / "inst.state").mkdir()
        qpath = write(tmp_path, "t1.qbf", render_qbf(random_qbf(1, 1, 120)) + "\n")
        capsys.readouterr()
        assert cli.main(["reduce", qpath, str(tmp_path / "inst")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / 'inst.state'}: ")
        assert (tmp_path / "inst.im").read_bytes() == old[0]
        assert (tmp_path / "inst.formula").read_bytes() == old[2]


class TestQbfEval:
    def test_true(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        assert cli.main(["qbf-eval", qpath]) == 0
        assert capsys.readouterr().out.strip() == "TRUE"

    def test_false(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "forall x0 : x0\n")
        assert cli.main(["qbf-eval", qpath]) == 1
        assert capsys.readouterr().out.strip() == "FALSE"

    def test_rename(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "forall a exists b : a | ~b\n")
        assert cli.main(["qbf-eval", qpath]) == 2
        assert cli.main(["qbf-eval", qpath, "--rename"]) == 0

    def test_json(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "forall x0 : x0\n")
        assert cli.main(["qbf-eval", qpath, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"result": "FALSE"}


class TestVerify:
    def test_single_file_agree_true(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        assert cli.main(["verify", qpath]) == 0
        assert capsys.readouterr().out.strip() == "AGREE(true)"

    def test_single_file_agree_false(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "forall x0 : x0\n")
        assert cli.main(["verify", qpath]) == 0
        assert capsys.readouterr().out.strip() == "AGREE(false)"

    def test_random_sweep(self, capsys):
        code = cli.main(
            ["verify", "--random", "25", "--seed", "5", "--max-l", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 25
        assert all("AGREE" in line for line in lines)

    def test_jobs_parallel(self, capsys):
        code = cli.main(
            ["verify", "--random", "16", "--seed", "9", "--max-l", "3", "--jobs", "4"]
        )
        assert code == 0

    def test_jobs_results_match_serial(self, capsys):
        args = ["verify", "--random", "10", "--seed", "31", "--max-l", "3"]
        assert cli.main(args) == 0
        serial = capsys.readouterr().out
        assert cli.main(args + ["--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        monkeypatch.setattr(cli, "eval_qbf", lambda theta: False)
        assert cli.main(["verify", qpath]) == 3
        assert capsys.readouterr().out.strip() == "DISAGREE"

    def test_json_summary(self, capsys):
        code = cli.main(
            ["verify", "--random", "5", "--seed", "2", "--max-l", "2", "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # json mode replaces the per-case lines instead of following them
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload == {"result": "AGREE", "cases": 5, "disagreements": 0}

    def test_nothing_to_do(self, capsys):
        assert cli.main(["verify"]) == 2

    def test_large_instances_are_decided_on_the_table(self, capsys, monkeypatch):
        # auto would send l >= 10 to sparse, which does not finish on them
        engines = []
        evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", lambda q, engine: engines.append(engine) or evaluate(q, engine))
        start = time.perf_counter()
        code = cli.main(["verify", "--random", "30", "--seed", "11", "--max-l", "12", "--matrix-nodes", "160", "--json"])
        assert time.perf_counter() - start < 10
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"result": "AGREE", "cases": 30, "disagreements": 0}
        assert set(engines) == {"table"}


class TestDeepInput:
    # every walk over a formula or a matrix keeps its own stack; deep trees
    # are compared by verdict only, as the dataclass __eq__ still recurses
    FORMULAS = {
        "and": ("101", lambda d: " & ".join(["p0"] * d), "SUPPORTED"),
        "ior": ("101", lambda d: " ior ".join(["p1"] * (d - 1) + ["p0"]), "SUPPORTED"),
        "implies": ("101", lambda d: " -> ".join(["p0"] * (d - 1) + ["p1"]), "NOT-SUPPORTED"),
        "not": ("100", lambda d: "not " * d + "p1", "SUPPORTED"),
        "parens": ("101", lambda d: "(p0 & " * d + "p0" + ")" * d, "SUPPORTED"),
        # each antecedent has two alternatives, so the query branches at
        # every implication: 2^(d-1) paths over a few distinct parts
        "questions": ("111", lambda d: " -> ".join(["?p0"] * d), "SUPPORTED"),
        "overlapping": ("111", lambda d: " -> ".join(["(p0 ior p1)"] * d), "SUPPORTED"),
    }

    @pytest.mark.parametrize("depth", [600, 10_000])
    @pytest.mark.parametrize("shape", sorted(FORMULAS))
    def test_check_deep_formula(self, demo_file, tmp_path, capsys, shape, depth):
        state, build, verdict = self.FORMULAS[shape]
        fpath = write(tmp_path, "deep.formula", build(depth) + "\n")
        code = cli.main(["check", demo_file, state, "--formula-file", fpath])
        assert capsys.readouterr().out.splitlines()[0] == verdict
        assert code == (0 if verdict == "SUPPORTED" else 1)

    def test_naive_reports_a_deep_formula(self, demo_file, tmp_path, capsys):
        # the reference engine stays plain recursion, and says so
        fpath = write(tmp_path, "deep.formula", " & ".join(["p0"] * 10_000) + "\n")
        assert cli.main(["check", demo_file, "101", "--naive", "--formula-file", fpath]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: query: formula nests too deeply for the naive engine"]

    @pytest.mark.parametrize("depth", [600, 10_000])
    @pytest.mark.parametrize(
        "clause, truth",
        [("(x0 | x1)", True), ("(x0 & ~x1)", False)],
        ids=["conjuncts", "disjuncts"],
    )
    def test_deep_matrix(self, tmp_path, capsys, clause, truth, depth):
        joiner = " & " if truth else " | "
        qpath = write(tmp_path, "deep.qbf", f"forall x0 exists x1 : {joiner.join([clause] * depth)}\n")
        assert cli.main(["qbf-eval", qpath]) == (0 if truth else 1)
        assert capsys.readouterr().out == ("TRUE\n" if truth else "FALSE\n")
        stem = str(tmp_path / "deep")
        assert cli.main(["reduce", qpath, stem]) == 0
        assert capsys.readouterr().out.startswith("l: 2\n")
        with open(f"{stem}.state", encoding="utf-8") as handle:
            state = handle.read().strip()
        code = cli.main(["check", f"{stem}.im", state, "--formula-file", f"{stem}.formula"])
        assert capsys.readouterr().out.splitlines()[0] == ("SUPPORTED" if truth else "NOT-SUPPORTED")
        assert code == (0 if truth else 1)
        assert cli.main(["verify", qpath]) == 0
        assert capsys.readouterr().out == f"AGREE({'true' if truth else 'false'})\n"

    @pytest.mark.parametrize(
        "quantifier, matrix, truth",
        [("exists", "x0 | ~x0", True), ("forall", "x0 & ~x0", False)],
    )
    def test_long_prefix(self, tmp_path, capsys, quantifier, matrix, truth):
        # 1500 quantifiers, decided at the first leaf by short-circuit
        prefix = " ".join(f"{quantifier} x{i}" for i in range(1500))
        qpath = write(tmp_path, "long.qbf", f"{prefix} : {matrix}\n")
        assert cli.main(["qbf-eval", qpath]) == (0 if truth else 1)
        assert capsys.readouterr().out == ("TRUE\n" if truth else "FALSE\n")


class TestStats:
    def test_json_keys(self, tmp_path, capsys):
        qpath = write(
            tmp_path, "t.qbf", "forall x0 exists x1 : (x0 | x1) & (x0 | ~x1)\n"
        )
        assert cli.main(["stats", qpath, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["l"] == 2
        assert payload["matrix_size"] == 14
        assert payload["translated_size"] == 108
        assert payload["result"] == "ok"
        assert 0 < payload["ratio"] < 10

    def test_text_report(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        assert cli.main(["stats", qpath]) == 0
        out = capsys.readouterr().out
        assert "l: 1" in out
        assert "ratio:" in out

    def test_advisory_even_when_bound_exceeded(self, tmp_path, capsys):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        assert cli.main(["stats", qpath, "--bound", "0.5"]) == 0
        assert "bound exceeded" in capsys.readouterr().out


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reduce", "{qbf}", "{stem}", "--bound", "nan"], "--bound must be a positive finite number"),
            (["reduce", "{qbf}", "{stem}", "--bound", "-1"], "--bound must be a positive finite number"),
            (["stats", "{qbf}", "--bound", "nan"], "--bound must be a positive finite number"),
            (["stats", "{qbf}", "--bound", "inf"], "--bound must be a positive finite number"),
            (["stats", "{qbf}", "--bound", "0"], "--bound must be a positive finite number"),
            (["verify", "--random", "3", "--matrix-nodes", "-5"], "--matrix-nodes must be at least 1"),
            (["verify", "--random", "3", "--jobs", "0"], "--jobs must be at least 1"),
            (["verify", "--random", "3", "--jobs", "-3"], "--jobs must be at least 1"),
            (["verify", "--random", "-1"], "--random must be at least 0"),
            (["verify", "--random", "3", "--max-l", "0"], "--max-l must be at least 1"),
        ],
    )
    def test_nonsense_values_exit_two(self, tmp_path, capsys, argv, message):
        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        stem = str(tmp_path / "out")
        assert cli.main([word.format(qbf=qpath, stem=stem) for word in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        # reduce writes nothing before rejecting its flags
        assert not list(tmp_path.glob("out.*"))


class TestRandomModel:
    def test_deterministic(self, capsys):
        args = ["random-model", "--seed", "11", "--worlds", "4", "--atoms", "2"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_output_decodes_and_validates(self, capsys):
        for seed in range(20):
            args = [
                "random-model",
                "--seed",
                str(seed),
                "--worlds",
                "3",
                "--atoms",
                "2",
                "--max-generators",
                "2",
            ]
            assert cli.main(args) == 0
            model = read_model_file(capsys.readouterr().out)
            assert model.n == 3 and model.l == 2 and model.is_modal

    @pytest.mark.parametrize("worlds", [63, 64, 100])
    def test_masks_past_machine_word(self, capsys, worlds):
        # random.sample cannot take range(1 << n) once its length overflows
        # a C ssize_t
        args = ["random-model", "--worlds", str(worlds), "--atoms", "1"]
        assert cli.main(args) == 0
        model = read_model_file(capsys.readouterr().out)
        assert model.n == worlds and model.is_modal

    def test_plain_kind(self, capsys):
        args = [
            "random-model",
            "--seed",
            "4",
            "--worlds",
            "2",
            "--atoms",
            "1",
            "--kind",
            "inqb",
        ]
        assert cli.main(args) == 0
        assert not read_model_file(capsys.readouterr().out).is_modal

    def test_invalid_parameters(self, capsys):
        assert cli.main(["random-model", "--seed", "1", "--worlds", "0", "--atoms", "1"]) == 2
        assert cli.main(["random-model", "--seed", "1", "--worlds", "2", "--atoms", "0"]) == 2


# argv shapes that a subcommand first sends through its own parser alone,
# and shapes that go through the full parser, for the test below
ROUTED_ARGV = [
    ["check", "m.im", "110", "--formula", "p0"],
    ["check", "m.im", "110", "--formula-file", "f", "--naive", "--json"],
    ["check", "m.im", "110", "--formula=p0", "--js"],
    ["check", "m.im", "110"],
    ["check", "m.im", "110", "--formula", "p0", "--formula-file", "f"],
    ["check", "m.im", "110", "--formula"],
    ["check", "m.im", "110", "--formula", "p0", "extra", "--bogus"],
    ["check", "-v", "m.im", "110", "--formula", "p0"],
    ["check", "--", "m.im", "110", "--formula", "p0"],
    ["check", "m.im", "110", "--formula", "p0", "--=x"],
    ["check"],
    ["verify"],
    ["verify", "a.qbf", "b.qbf", "--random", "3", "--seed", "-2", "--max-l", "2"],
    ["verify", "--random", "x"],
    ["reduce", "a.qbf", "out", "--bound", "1e-3", "--rename", "--json"],
    ["stats", "a.qbf", "--bound"],
    ["qbf-eval", "a.qbf", "--ren", "--json"],
    ["random-model", "--worlds=3", "--atoms", "2", "--kind", "bogus"],
    *([command, "--help"] for command in ("check", "reduce", "qbf-eval", "verify", "stats", "random-model")),
    ["check", "-h"],
    ["-v", "check", "m.im", "110", "--formula", "p0"],
    ["-vv", "verify"],
    ["--", "verify"],
    ["--help"],
    ["frobnicate", "x"],
    ["Check"],
    [],
]


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", ROUTED_ARGV, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_one_pass_parses_as_the_full_parser(self, argv, capsys):
        def parse(route):
            try:
                return route(list(argv)), None
            except SystemExit as e:
                return None, (e.code, *capsys.readouterr())

        assert parse(cli._parse) == parse(cli.build_parser().parse_args)

    def test_calls_do_not_leak_state(self, demo_file, tmp_path, capsys):
        check = ["check", demo_file, "110", "--formula", "p1"]
        assert cli.main(check + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == "SUPPORTED"
        assert cli.main(check) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "SUPPORTED"
        assert out[1].startswith("nodes visited:")

        assert cli.main(["-v"] + check) == 0
        assert "engine:" in capsys.readouterr().err
        assert cli.main(check) == 0
        assert "engine:" not in capsys.readouterr().err

        qpath = write(tmp_path, "t.qbf", "exists x0 : x0\n")
        assert cli.main(["verify", qpath]) == 0
        assert capsys.readouterr().out.strip() == "AGREE(true)"
        assert cli.main(["verify"]) == 2
        assert "nothing to verify" in capsys.readouterr().err

        assert cli.main(["check", demo_file, "110"]) == 2
        capsys.readouterr()
        assert cli.main(check) == 0
        assert capsys.readouterr().out.splitlines()[0] == "SUPPORTED"


class TestEntryPoint:
    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 2

    def test_internal_error_exits_four(self, demo_file, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "evaluate", crash)
        assert cli.main(["check", demo_file, "110", "--formula", "p0"]) == 4
        err = capsys.readouterr().err
        assert err == "inqcheck: internal error: RecursionError: maximum recursion depth exceeded\n"

    @pytest.mark.parametrize(
        "case",
        [
            "check-model",
            "check-formula-file",
            "qbf-eval",
            "reduce-out-dir",
            "check-formula-digit",
            "check-formula-file-digit",
            "check-model-digit",
            "check-formula-long-index",
            "check-model-long-count",
            "stats",
            "verify",
            "reduce-stem-dir",
            "reduce-stem-dot",
            "reduce-stem-dotdot",
        ],
    )
    def test_input_errors_exit_two(self, case, tmp_path, demo_file, capsys):
        # a file that is not UTF-8, an output directory that does not
        # exist, an output stem that names a directory or ends in . or
        # .., a digit that
        # str.isdigit accepts and int() does not, or more digits than
        # int() reads, is the user's input error, not a crash (exit 4)
        bad = str(tmp_path / "latin1.txt")
        with open(bad, "wb") as handle:
            handle.write("caf\xe9\n".encode("latin-1"))
        digit_formula = write(tmp_path, "f.formula", "p²\n")
        with open(demo_file, encoding="utf-8") as handle:
            demo = handle.read()
        digit_model = write(tmp_path, "digit.im", demo.replace("atoms 2", "atoms ²"))
        long_model = write(tmp_path, "long.im", demo.replace("atoms 2", "atoms " + "2" * 5000))
        argv, path = {
            "check-model": (["check", bad, "110", "--formula", "p0"], bad),
            "check-formula-file": (["check", demo_file, "110", "--formula-file", bad], bad),
            "qbf-eval": (["qbf-eval", bad], bad),
            "reduce-out-dir": (
                ["reduce", write(tmp_path, "t.qbf", "exists x0 : x0\n"), "/nonexistent/dir/inst"],
                "/nonexistent/dir/inst.im",
            ),
            "check-formula-digit": (["check", demo_file, "110", "--formula", "p²"], "formula argument"),
            "check-formula-file-digit": (["check", demo_file, "110", "--formula-file", digit_formula], digit_formula),
            "check-model-digit": (["check", digit_model, "110", "--formula", "p0"], digit_model),
            "check-formula-long-index": (["check", demo_file, "110", "--formula", "p" + "1" * 5000], "formula argument"),
            "check-model-long-count": (["check", long_model, "110", "--formula", "p0"], long_model),
            "stats": (["stats", bad], bad),
            "verify": (["verify", bad], bad),
            "reduce-stem-dir": (
                ["reduce", write(tmp_path, "t.qbf", "exists x0 : x0\n"), str(tmp_path) + os.sep],
                f"out_stem {str(tmp_path) + os.sep!r}",
            ),
            "reduce-stem-dot": (
                ["reduce", write(tmp_path, "t.qbf", "exists x0 : x0\n"), str(tmp_path) + os.sep + "."],
                f"out_stem {str(tmp_path) + os.sep + '.'!r}",
            ),
            "reduce-stem-dotdot": (
                ["reduce", write(tmp_path, "t.qbf", "exists x0 : x0\n"), str(tmp_path) + os.sep + ".."],
                f"out_stem {str(tmp_path) + os.sep + '..'!r}",
            ),
        }[case]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: ")

    def test_runs_without_numpy(self, tmp_path):
        script = textwrap.dedent(
            """
            import sys
            sys.modules["numpy"] = None  # any import of numpy now fails
            import inqcheck
            from inqcheck import cli
            qbf, stem = sys.argv[1:]
            assert cli.main(["reduce", qbf, stem]) == 0
            with open(stem + ".state") as handle:
                state = handle.read().strip()
            assert cli.main(["check", stem + ".im", state, "--formula-file", stem + ".formula"]) == 0
            assert cli.main(["verify", "--random", "5"]) == 0
            """
        )
        qbf = write(tmp_path, "t.qbf", "forall x0 exists x1 : (x0 | x1) & (~x0 | ~x1)\n")
        src = os.path.dirname(os.path.dirname(inqcheck.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", script, qbf, str(tmp_path / "inst")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


def mutated_texts(text: str, count: int, seed: int):
    """count seeded one-place faults in text: a character replaced, deleted
    or inserted, or a line deleted, repeated, swapped with the next or cut
    short."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.randrange(7)
        if kind < 3:
            at, c = rng.randrange(len(text)), rng.choice("0011 \n#2x²٠")
            yield (text[:at] + c + text[at + 1 :], text[:at] + text[at + 1 :], text[:at] + c + text[at:])[kind]
            continue
        lines = text.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        if kind == 3:
            del lines[i]
        elif kind == 4:
            lines.insert(i, lines[i])
        elif kind == 5:
            j = (i + 1) % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i][: rng.randrange(len(lines[i]))] + "\n"
        yield "".join(lines)


class TestModelFileFuzz:
    def test_mutated_model_files_are_input_errors(self, tmp_path, capsys):
        # a model file with one fault decodes to a model or names its fault,
        # and check on it answers or exits 2, never as an internal error
        text = write_model_file(random_model(random.Random(31), n_min=5, n_max=5, l_max=1))
        path = tmp_path / "m.im"
        codes = Counter()
        for mutant in mutated_texts(text, 200, seed=31):
            try:
                read_model_file(mutant)
            except (CodecError, ValidationError):
                pass
            path.write_text(mutant, encoding="utf-8")
            code = cli.main(["check", str(path), "11010", "--formula", "box ?p0 -> wbox p0"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (mutant, err)
            codes[code] += 1
        # the faults reach both sides: most are refused, some still decode
        assert codes[2] and codes[0] + codes[1], codes


class TestQbfFileFuzz:
    def test_mutated_qbf_files_are_input_errors(self, tmp_path, capsys):
        # a QBF file with one fault parses or names its fault, and each
        # command that reads one answers or exits 2, never as an internal
        # error
        path = str(tmp_path / "t.qbf")
        stem = str(tmp_path / "out")
        codes = Counter()
        # a true and a false formula, over lines, after a comment
        for seed in (40, 42):
            text = render_qbf(random_qbf(seed, 3, 30)).replace(" : ", " :\n").replace(" & ", " &\n")
            for mutant in mutated_texts(f"# fuzz\n{text}\n", 200, seed=seed):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(mutant)
                for argv in (["qbf-eval", path], ["verify", path], ["reduce", path, stem], ["stats", path]):
                    code = cli.main(argv)
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2), (argv[0], mutant, err)
                    codes[code] += 1
        assert codes[2] and codes[0] and codes[1], codes

    def test_mutated_formula_files_are_input_errors(self, tmp_path, capsys):
        # the formula file that reduce writes, with one fault, checked
        # against the model and state reduce writes beside it
        stem = str(tmp_path / "ci")
        write(tmp_path, "t.qbf", render_qbf(random_qbf(38, 3, 30)) + "\n")
        assert cli.main(["reduce", str(tmp_path / "t.qbf"), stem]) == 0
        capsys.readouterr()
        state = (tmp_path / "ci.state").read_text().strip()
        text = (tmp_path / "ci.formula").read_text()
        path = str(tmp_path / "m.formula")
        codes = Counter()
        for mutant in mutated_texts(text, 200, seed=36):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(mutant)
            code = cli.main(["check", f"{stem}.im", state, "--formula-file", path])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (mutant, err)
            codes[code] += 1
        assert codes[2] and codes[0] + codes[1], codes


def readme_sessions(*sections: str) -> list[tuple[str, list[str]]]:
    """Each `$ ` command in the code blocks of the named README sections,
    with the lines printed under it."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    sessions: list[tuple[str, list[str]]] = []
    for section in sections:
        body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
        for block in re.findall(r"^```\n(.*?)^```$", body, flags=re.S | re.M):
            for line in block.splitlines():
                if line.startswith("$ "):
                    sessions.append((line[2:], []))
                elif sessions:
                    sessions[-1][1].append(line)
    return sessions


class TestReadme:
    def test_examples_print_what_readme_shows(self, tmp_path, monkeypatch, capsys):
        # the few shell forms the examples use: `> FILE`, `echo '...' > FILE`
        # and "$(cat FILE)"
        monkeypatch.chdir(tmp_path)
        sessions = readme_sessions("Quick start", "Subcommands")
        assert len(sessions) == 8
        for command, expected in sessions:
            words = shlex.split(command)
            target = None
            if words[-2] == ">":
                words, target = words[:-2], words[-1]
            if words[0] == "echo":
                out = " ".join(words[1:]) + "\n"
            else:
                assert words[0] == "inqcheck", command
                argv = []
                for word in words[1:]:
                    cat = re.fullmatch(r"\$\(cat (\S+)\)", word)
                    argv.append((tmp_path / cat.group(1)).read_text().rstrip("\n") if cat else word)
                assert cli.main(argv) in (0, 1), command
                out = capsys.readouterr().out
            if target is not None:
                (tmp_path / target).write_text(out)
                out = ""
            assert out.splitlines() == expected, command
