import argparse
import collections
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import curvcert.algebra as algebra
import curvcert.catalog as catalog
import curvcert.certify as certify
import curvcert.cli as cli_module
import curvcert.flatness as flatness
import curvcert.triple as triple_module
from curvcert.algebra import FieldTag, block_stack, bracket
from curvcert.catalog import build_entry, list_catalog, t1_sphere
from curvcert.certify import (
    StartBudget,
    certify_part2,
    certify_part3,
    check_fatness,
    report_to_dict,
    scan_along_A,
)
from curvcert.cli import build_parser, main
from curvcert.triple import load_triple, triple_to_json

from helpers import (
    DegenerateSpectrum,
    basis_element,
    bit_equal,
    elements,
    from_spanning,
    make_triple,
    report_to_json,
    save_triple,
    stabilizer_subalgebra,
)


SQ2 = math.sqrt(2.0)

# sha256 of the stdout of `export --entry t1_sphere --n N` while its k was the stabilizer
# of A in h, the null space of an SVD
OLD_T1_SPHERE_EXPORTS = {
    3: "893fb2e1ab4566026a7798689daf20ecc2f0e81506e4784613aeb30dfb6979fd",
    4: "033d5cdd7846b93f4a371aa6ce61aeeb567fb711462544249a5e0c98e7bd0e74",
    10: "dc5b1fc00022d6510334f8114528d8ebbf78919add34c5d40f878df7c5615870",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        rows = json.loads(out)
        ids = {row["id"] for row in rows}
        assert ids == {"t1s3_product", "t1_sphere", "t1_projective",
                       "pt_projective", "m_kl", "sp_example"}
        mkl = next(row for row in rows if row["id"] == "m_kl")
        assert "k != 0" in mkl["parameters"]

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "text")
        assert code == 0
        assert "t1s3_product" in out
        assert "{" not in out.splitlines()[0]

    # sha256 of the stdout of `list` and `list --format text`, taken before the
    # catalog entries were built through one constructor; bytes must not change
    @pytest.mark.parametrize("argv,want", [
        ((), "4ea666c2145294e43c13d82d005582939852391e45c02abe9ec32afb70257f40"),
        (("--format", "text"), "f20feab924d465600ba01ff871f6fb4f37de10a3a706cf8675c98ba2e7a5a9ca"),
    ])
    def test_pinned_digest(self, capsys, argv, want):
        code, out, _ = run(capsys, "list", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want


class TestCheckExitCodes:
    def test_part3_certified(self, capsys):
        code, out, _ = run(capsys, "check", "--entry", "sp_example", "--n", "2",
                           "--method", "part3")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "CERTIFIED"
        assert math.isclose(doc["score"], 1.0 / SQ2, rel_tol=1e-10)

    def test_fat_refuted_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--entry", "t1_sphere", "--n", "4",
                           "--method", "fat", "--starts", "24")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "REFUTED"
        assert doc["witness"] is not None

    def test_tighter_refute_tol_asks_for_a_tighter_witness(self, capsys):
        # a search stops at its first value below refute_tol/2: at the default
        # 1e-12 the score is about 1.5e-13, so 1e-20 makes the descent go on
        code, out, _ = run(capsys, "check", "--entry", "sp_example", "--n", "2",
                           "--method", "fat", "--refute-tol", "1e-20")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "REFUTED" and doc["score"] < 1e-20

    def test_m_kl_part3(self, capsys):
        code, out, _ = run(capsys, "check", "--entry", "m_kl", "--n", "2",
                           "--k", "1", "--l", "1", "--method", "part3")
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["score"], 0.190983, rel_tol=1e-5)

    def test_missing_entry_params_is_error(self, capsys):
        code, _, err = run(capsys, "check", "--entry", "m_kl", "--method", "part3")
        assert code == 3
        assert "error" in err

    def test_unknown_entry_is_error(self, capsys):
        code, _, err = run(capsys, "check", "--entry", "nope", "--method", "fat")
        assert code == 3
        assert "unknown catalog entry: nope" in err

    def test_entry_and_file_together_is_error(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, _ = run(capsys, "check", "--entry", "t1s3_product",
                         "--file", str(path), "--method", "fat")
        assert code == 3

    def test_usage_error_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--method", "bogus", "--entry", "t1s3_product"])
        assert info.value.code == 3

    # part3 on t1_sphere(500) once ran out of memory in the build and exited 1, as if REFUTED;
    # the failures are raised by stand-ins, since a real huge allocation depends on the host
    @pytest.mark.parametrize("stage", ["build_entry", "certify_part3"])
    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 937. GiB"), RuntimeError("boom"),
                                     DegenerateSpectrum("ambiguous kernel")],
                             ids=["MemoryError", "RuntimeError", "DegenerateSpectrum"])
    def test_internal_error_exits_3_with_its_traceback(self, capsys, monkeypatch, stage, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, stage, fail)
        n = "500" if stage == "build_entry" else "3"  # t1_sphere(500) is never built
        code, out, err = run(capsys, "check", "--entry", "t1_sphere", "--n", n, "--method", "part3")
        assert (code, out) == (3, "")
        assert err.startswith("Traceback") and ", in fail\n" in err  # down to the raising frame
        assert err.endswith(f"curvcert: internal error: {type(exc).__name__}: {exc}\n")

    def test_m_kl_with_a_zero_weight_row_exits_3(self, capsys):
        code, out, err = run(capsys, "check", "--entry", "m_kl", "--n", "2", "--k", "0", "--l", "0",
                             "--method", "part3")
        assert (code, out) == (3, "")
        assert err == ("curvcert: error: m_kl requires (k, l) != (0, 0): with k = 0 and l = 0"
                       " the weight row diag(ki, li, 0) is zero\n")


class TestScan:
    def test_csv_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "--entry", "t1s3_product",
                           "--s-values", "0,0.1,0.2", "--format", "csv",
                           "--starts", "16")
        assert code == 1  # the s = 0 point refutes
        lines = out.strip().splitlines()
        assert lines[0] == "s,verdict,score"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][1] == "REFUTED"
        assert rows[1][1] == "CERTIFIED"
        assert rows[2][1] == "CERTIFIED"
        assert float(rows[1][2]) < float(rows[2][2])

    def test_positive_window_exit_zero(self, capsys):
        code, out, _ = run(capsys, "scan", "--entry", "t1s3_product",
                           "--s-values", "0.1,0.2", "--starts", "16")
        assert code == 0
        docs = json.loads(out)
        assert [d["s"] for d in docs] == [0.1, 0.2]

    def test_empty_s_values_is_error(self, capsys):
        code, _, err = run(capsys, "scan", "--entry", "t1s3_product", "--s-values", "")
        assert code == 3
        assert "s-values" in err


class TestScanPositionOutOfReach:
    """An s whose exp(s X) cannot be formed is an input error naming s, with no traceback."""

    @pytest.mark.parametrize("s,message", [
        ("1e200", "exp(s X) at s = 1e+200: the norm of s X overflows"),
        ("1e6", "exp(s X) at s = 1000000.0 is not unitary to 1e-10"),
    ])
    def test_exits_3_naming_s(self, capsys, s, message):
        code, out, err = run(capsys, "scan", "--entry", "sp_example", "--n", "2",
                             "--s-values", f"0.1,{s}", "--starts", "4")
        assert (code, out, err) == (3, "", f"curvcert: error: {message}\n")


class TestExportRoundTrip:
    def test_export_then_check_file(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        code, _, _ = run(capsys, "export", "--entry", "m_kl", "--n", "2",
                         "--k", "1", "--l", "-1", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "curvcert-triple/1"
        code, out, _ = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 0
        assert json.loads(out)["verdict"] == "CERTIFIED"

    # every entry of perfbench's catalog-part3 workload: the entry and its export name the
    # same sup rows, and project the same own rows of their subs
    @pytest.mark.parametrize("entry", [
        ["--entry", "t1s3_product"],
        *(["--entry", "t1_sphere", "--n", str(n)] for n in range(2, 11)),
        *(["--entry", "t1_projective", "--field", f, "--n", str(n)] for f in "CH" for n in (2, 3)),
        *(["--entry", "pt_projective", "--field", f, "--n", "2"] for f in "RCH"),
        *(["--entry", "m_kl", "--n", str(n), "--k", "1", "--l", "1"] for n in (2, 3)),
        *(["--entry", "sp_example", "--n", str(n)] for n in range(2, 9)),
    ], ids=lambda argv: "-".join(argv[1::2]))
    def test_part3_report_of_the_entry_and_of_its_export_agree(self, capsys, tmp_path, entry):
        path = tmp_path / "triple.json"
        code, by_entry, _ = run(capsys, "check", *entry, "--method", "part3")
        assert code == 0
        assert run(capsys, "export", *entry, "--out", str(path)) == (0, "", "")
        assert run(capsys, "check", "--file", str(path), "--method", "part3") == (0, by_entry, "")

    # the entries whose pairs have rows of their own, projected off the rows that the sub
    # does not name, in g (t1s3_product's slot sums) or in h (tied blocks, weight rows)
    @pytest.mark.parametrize("entry", [
        ["--entry", "t1s3_product"],
        *(["--entry", "t1_projective", "--field", f, "--n", "2"] for f in "CH"),
        ["--entry", "m_kl", "--n", "2", "--k", "1", "--l", "1"],
        ["--entry", "m_kl", "--n", "3", "--k", "2", "--l", "-3"],
        ["--entry", "pt_projective", "--field", "R", "--n", "2"],
    ], ids=lambda argv: "-".join(argv[1::2]))
    @pytest.mark.parametrize("search", [
        ["check", "--method", "fat", "--starts", "16"],
        ["scan", "--s-values", "0,0.1", "--starts", "4"],
    ], ids=["fat", "scan"])
    def test_search_report_of_the_entry_and_of_its_export_agree(self, capsys, tmp_path, entry,
                                                                search):
        path = tmp_path / "triple.json"
        command, *flags = search
        by_entry = run(capsys, command, *entry, *flags)
        assert by_entry[0] in (0, 1) and by_entry[1]
        assert run(capsys, "export", *entry, "--out", str(path)) == (0, "", "")
        assert run(capsys, command, "--file", str(path), *flags) == by_entry

    @pytest.mark.parametrize("n", sorted(OLD_T1_SPHERE_EXPORTS))
    def test_an_old_t1_sphere_file_gives_the_reports_of_the_entry(self, capsys, tmp_path, n):
        # the export from when k was the stabilizer of A in h: the SVD's null space, in
        # another frame of the same span than the generator rows the entry has now
        entry = t1_sphere(n)
        field, size = FieldTag.REAL, n + 1
        g, h = (from_spanning(block_stack(field, size, idx), field)
                for idx in (range(size), range(1, size)))
        old = make_triple(g, h, stabilizer_subalgebra(h, entry.base_point_A, g),
                          label=entry.triple.label, base_point=entry.base_point_A)
        text = triple_to_json(old)
        assert hashlib.sha256((text + "\n").encode()).hexdigest() == OLD_T1_SPHERE_EXPORTS[n]
        assert not bit_equal(old.k_basis.mat, entry.triple.k_basis.mat)
        path = tmp_path / "old.json"
        path.write_text(text)
        for method in ("part3", "fat"):
            by_entry = run(capsys, "check", "--entry", "t1_sphere", "--n", str(n), "--method", method)
            assert by_entry[0] in (0, 1)
            assert run(capsys, "check", "--file", str(path), "--method", method) == by_entry

    def test_invalid_file_is_error(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "t1s3_product", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["schema"] = "bogus/9"
        doc["bases"]["h"], doc["bases"]["k"] = doc["bases"]["k"], doc["bases"]["h"]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 3
        assert "schema" in err
        doc["schema"] = "curvcert-triple/1"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 3
        assert "leaves its ambient span" in err

    @pytest.mark.parametrize("method", ["part3", "fat", "part2"])
    def test_non_finite_component_is_error(self, capsys, tmp_path, method):
        # every `> tol` test is False on NaN: an all-NaN k row once left m empty and
        # each method CERTIFIED the file vacuously
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "t1_sphere", "--n", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        assert doc["bases"]["k"] == []  # so(1) = 0
        doc["bases"]["k"] = [[math.nan] * len(doc["bases"]["h"][0])]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--file", str(path), "--method", method)
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", *(
        '{"schema": "curvcert-triple/1", "field": "real", "n": 2, "bases": %s}' % bases
        for bases in ("[1, 2]", "null", "true", '"ghk"'))])
    def test_document_that_is_not_an_object_is_error(self, capsys, tmp_path, text):
        path = tmp_path / "triple.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 3
        assert out == ""
        assert "is a JSON object, not" in err
        doc = json.loads(text)  # the message names the JSON type
        what, value = ('"bases"', doc["bases"]) if isinstance(doc, dict) else ("a triple document", doc)
        kind = {"[1, 2]": "array", "3": "number", "None": "null", "True": "boolean", "'ghk'": "string"}
        assert err == f"curvcert: error: {what} is a JSON object, not {kind[repr(value)]}\n"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(n=[2]), "n must be a positive integer, not [2]"),
        (lambda doc: doc["bases"].update(g=[[{"a": 1}]]), "a basis must hold numbers only"),
        (lambda doc: doc["bases"].update(g=[[str(v) for v in row] for row in doc["bases"]["g"]]),
         "a basis must hold numbers only"),
    ], ids=["n-is-a-list", "row-holds-an-object", "numbers-as-strings"])
    def test_malformed_document_is_error(self, capsys, tmp_path, edit, message):
        # the first two once ended in a TypeError traceback instead of exit 3;
        # numbers written as strings were parsed and the file was certified
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "t1_sphere", "--n", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 3 and out == ""
        assert f"curvcert: error: {message}" in err

    @pytest.mark.parametrize("drop", ["field", "n", "bases", "g", "h", "k"])
    def test_missing_key_is_named(self, capsys, tmp_path, drop):
        # each once ended in the bare KeyError text, as `curvcert: error: 'bases'`
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "t1_sphere", "--n", "2", "--out", str(path))
        doc = json.loads(path.read_text())
        del (doc if drop in doc else doc["bases"])[drop]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        where = "a triple document" if drop in ("field", "n", "bases") else '"bases"'
        assert (code, out, err) == (3, "", f'curvcert: error: {where} has no "{drop}"\n')

    def test_unknown_entry_is_error(self, capsys):
        code, out, err = run(capsys, "check", "--entry", "nope", "--method", "part3")
        assert (code, out, err) == (3, "", "curvcert: error: unknown catalog entry: nope\n")

    def test_inline_base_point_without_matrix_is_error(self, capsys):
        code, out, err = run(capsys, "check", "--entry", "t1_sphere", "--n", "2",
                             "--method", "part3", "--A", '{"n": 2}')
        assert (code, out, err) == (3, "", 'curvcert: error: an --A object has no "matrix"\n')

    @pytest.mark.parametrize("a,message", [
        ('{"n": [2], "matrix": [0]}', "n must be a positive integer, not [2]"),
        ('{"matrix": {"a": 1}}', "a matrix must hold numbers only"),
    ], ids=["n-is-a-list", "matrix-is-an-object"])
    def test_malformed_inline_base_point_is_error(self, capsys, a, message):
        code, out, err = run(capsys, "check", "--entry", "t1_sphere", "--n", "2",
                             "--method", "part3", "--A", a)
        assert code == 3 and out == ""
        assert f"curvcert: error: {message}" in err

    def test_exported_file_reloads_bit_faithfully(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "sp_example", "--n", "3", "--out", str(path))
        code, out, _ = run(capsys, "export", "--file", str(path))
        assert code == 0
        assert out == path.read_text() + "\n"

    def test_export_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "export", "--entry", "t1_sphere", "--n", "3", "--out", str(a))
        run(capsys, "export", "--entry", "t1_sphere", "--n", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestConfigAndOutput:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("starts = 8   # small budget\nseed = 5\n")
        code, out, _ = run(capsys, "check", "--entry", "t1s3_product",
                           "--method", "part2", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["starts"] == 8
        assert doc["seed"] == 5

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("starts = 8\n")
        code, out, _ = run(capsys, "check", "--entry", "t1s3_product",
                           "--method", "part2", "--config", str(cfg), "--starts", "12")
        assert code == 0
        assert json.loads(out)["starts"] == 12

    def test_unknown_config_key_is_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, _ = run(capsys, "check", "--entry", "t1s3_product",
                         "--method", "fat", "--config", str(cfg))
        assert code == 3

    def test_out_files_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["check", "--entry", "t1s3_product", "--method", "fat",
                "--starts", "16", "--seed", "1"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_timing_flag_adds_field(self, capsys):
        code, out, _ = run(capsys, "check", "--entry", "t1s3_product",
                           "--method", "part3", "--timing")
        doc = json.loads(out)
        assert "wall_time_ms" in doc
        code, out, _ = run(capsys, "check", "--entry", "t1s3_product",
                           "--method", "part3")
        assert "wall_time_ms" not in json.loads(out)


class TestPreconditions:
    def test_part2_with_base_point_in_h_is_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "t1s3_product", "--out", str(path))
        doc = json.loads(path.read_text())
        v = 1.0 / SQ2  # A = (i, i)/sqrt(2) lies in h
        doc["base_point"] = [0.0, v, 0.0, 0.0] + [0.0] * 8 + [0.0, v, 0.0, 0.0]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--file", str(path), "--method", "part2",
                           "--starts", "8")
        assert code == 2
        report = json.loads(out)
        assert report["witness"] is None
        assert report["notes"] == ["precondition failed: A does not lie in p"]

    @pytest.mark.parametrize("argv", [["check", "--method", "part3"],
                                      ["check", "--method", "part2", "--starts", "4"],
                                      ["scan", "--s-values", "0.1", "--starts", "4"]])
    def test_base_point_from_another_algebra_is_error(self, capsys, argv):
        # a complex 2x2 A on the quaternion triple t1s3_product
        v = 1.0 / SQ2
        a = json.dumps({"field": "complex", "n": 2, "matrix": [0, v, 0, 0, 0, 0, 0, -v]})
        code, _, err = run(capsys, *argv, "--entry", "t1s3_product", "--A", a)
        assert code == 3
        assert "mismatched operands: quaternion(2) vs complex(2)" in err

    def test_scan_with_base_point_in_h_is_inconclusive(self, capsys):
        v = 1.0 / SQ2  # A = (i, i)/sqrt(2) lies in h
        a = json.dumps([0.0, v, 0.0, 0.0] + [0.0] * 8 + [0.0, v, 0.0, 0.0])
        argv = ["scan", "--entry", "t1s3_product", "--s-values", "0,0.1", "--starts", "4"]
        code, out, _ = run(capsys, *argv, "--A", a)
        assert code == 2
        for doc in json.loads(out):
            assert doc["verdict"] == "INCONCLUSIVE" and doc["witness"] is None
            assert doc["notes"] == ["precondition failed: A does not lie in p"]
        code, out, _ = run(capsys, *argv)  # the entry's A lies in p: no note
        assert code == 1
        assert not any("precondition" in note for doc in json.loads(out) for note in doc["notes"])

    @pytest.mark.parametrize("method,flag", [
        ("part2", ["--refute-tol", "1e-12"]),
        ("part3", ["--refute-tol", "1e-12"]),
        ("part3", ["--seed", "0"]),
        ("part3", ["--starts", "64"]),
        # the entry's own A: fat reads no base point, so the report would not change
        ("fat", ["--A", json.dumps([0.0, 1 / SQ2, 0.0, 0.0] + [0.0] * 8 + [0.0, -1 / SQ2, 0, 0])]),
    ])
    def test_check_rejects_flags_its_method_ignores(self, capsys, method, flag):
        code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", method, *flag)
        assert code == 3 and out == ""
        assert f"{flag[0]} does not apply to check --method {method}" in err

    @pytest.mark.parametrize("method,line", [("part2", "refute_tol = 1e-7"),
                                             ("part3", "seed = 5"), ("part3", "starts = 3")])
    def test_check_rejects_config_keys_its_method_ignores(self, capsys, tmp_path, method, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", method,
                             "--config", str(cfg))
        assert code == 3 and out == ""
        key = line.split(" =")[0]
        assert f"config key {key} does not apply to check --method {method}" in err

    @pytest.mark.parametrize("argv", [
        ["--entry", "t1s3_product", "--n", "7", "--k", "3", "--l", "2", "--field", "C"],
        ["--entry", "t1_sphere", "--n", "3", "--field", "H"],
        ["--entry", "m_kl", "--n", "2", "--k", "1", "--l", "1", "--field", "C"],
    ])
    def test_entry_parameters_the_entry_does_not_read_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "export", *argv)
        assert code == 3 and out == ""
        assert f"does not apply to --entry {argv[1]}" in err

    @pytest.mark.parametrize("param", [["--n", "3"], ["--k", "1"], ["--l", "1"], ["--field", "C"]])
    def test_file_takes_no_entry_parameters(self, capsys, tmp_path, param):
        path = str(tmp_path / "t1s3.json")
        assert run(capsys, "export", "--entry", "t1s3_product", "--out", path)[0] == 0
        for argv in (["export"], ["check", "--method", "part3"]):
            code, out, err = run(capsys, *argv, "--file", path, *param)
            assert code == 3 and out == ""
            assert f"{param[0]} does not apply to --file" in err


def strict_json(text):
    """Parse text, refusing the non-standard constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestUnconfirmedRefutation:
    """A file whose g is not closed: g = span(e01, e02) in so(3), h = span(e01), k = 0, A = e02/|e02|.

    [e01, e02] lies outside g, so its coordinates along g vanish: fat, part2
    and part3 reach 0 there, which the element path does not confirm: without
    that check all three read REFUTED at 0.  With whole brackets, fat and part3
    were CERTIFIED (0.5, 1/sqrt(2)) and part2 vacuously CERTIFIED (0.0).
    """

    NOTE = re.compile(r"unconfirmed refutation: (\S+), read along g or h, is below (\S+), "
                      r"but the element path gives (\S+) for the witness")

    @pytest.mark.parametrize("method,threshold,element", [
        ("fat", 1e-12, 0.5), ("part2", 1e-12, 0.5), ("part3", 1e-7, 1 / SQ2)])
    def test_is_inconclusive_with_both_values(self, capsys, tmp_path, method, threshold, element):
        e01, e02 = (basis_element(FieldTag.REAL, 3, 0, j, 0) for j in (1, 2))
        path = str(tmp_path / "open.json")
        save_triple(make_triple([e01, e02], [e01], [], base_point=(1 / e02.norm()) * e02), path)
        code, out, _ = run(capsys, "check", "--file", path, "--method", method)
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "INCONCLUSIVE" and report["witness"] is None
        assert report["score"] == 0.0
        found = [m.groups() for m in map(self.NOTE.match, report["notes"]) if m]
        assert len(found) == 1
        search, below, got = map(float, found[0])
        assert search == 0.0 and below == threshold
        assert math.isclose(got, element, rel_tol=1e-12)


class TestVerdictBands:
    """Runs whose score lies between a CERTIFIED and a REFUTED threshold: each is INCONCLUSIVE, exit 2.

    A verdict rule whose threshold moves turns one of them: part3 certifies
    at sigma_min > tol and refutes below tol/10, a search certifies above tol
    and refutes below refute_tol.  A refutation moved past the score shows
    as an "unconfirmed refutation" note, since the element path keeps its
    own threshold.  The convergence counts are not pinned: capped starts
    move with the BLAS kernel.
    """

    def test_part3_between_tol_over_10_and_tol(self, capsys):
        code, out, _ = run(capsys, "check", "--entry", "t1_sphere", "--n", "3", "--method", "part3",
                           "--tol", "1")
        report = json.loads(out)
        assert (code, report["verdict"]) == (2, "INCONCLUSIVE")
        assert 0.1 < report["score"] <= 1.0
        assert math.isclose(report["score"], 1 / SQ2, rel_tol=1e-10)
        assert report["notes"] == [certify._RANK_ONE_NOTE]

    def test_search_between_tol_over_100_and_tol(self, capsys):
        code, out, _ = run(capsys, "scan", "--entry", "m_kl", "--n", "2", "--k", "1", "--l", "1",
                           "--s-values", "0.002", "--starts", "16")
        [report] = json.loads(out)
        assert (code, report["verdict"]) == (2, "INCONCLUSIVE")
        assert 1e-8 < report["score"] <= 1e-6
        assert math.isclose(report["score"], 8.58e-8, rel_tol=1e-2)
        assert not [note for note in report["notes"]
                    if note.startswith(("heuristic certificate", "unconfirmed"))]

    def test_search_between_refute_tol_and_100_refute_tol(self, capsys):
        # s = 4.4429 is pi sqrt(2) rounded: half the period of exp(-sA) on t1_sphere(3)
        code, out, _ = run(capsys, "scan", "--entry", "t1_sphere", "--n", "3", "--s-values", "4.4429",
                           "--starts", "16")
        [report] = json.loads(out)
        assert (code, report["verdict"]) == (2, "INCONCLUSIVE")
        assert 1e-12 <= report["score"] < 1e-10
        assert math.isclose(report["score"], 7.28e-11, rel_tol=1e-2)
        assert not [note for note in report["notes"] if note.startswith("unconfirmed")]


class TestSecondTermOnTheElementPath:
    """A scan's and part2's refutation stands only once |[Z, W]|^2 + |[X^h, Y^h]|^2 meets it on the element path.

    Both refute on the catalog (the scan at s = 0).  With two generators that
    do not commute added to the h-parts X^h, Y^h that the caller hands the
    search on elements, the witness misses the threshold there, and the note
    gives |[Z, W]|^2 plus the patched term.
    """

    @pytest.mark.parametrize("search", ["scan", "part2"])
    def test_a_patched_term_leaves_the_refutation_unconfirmed(self, capsys, monkeypatch, search):
        parts, real = [], certify._flat_plane_search

        def patched(triple, method, z_dom, second, *rest):
            images, element_images = second
            # the real unit at (0, 1) and the imaginary unit i at (0, 0) do not commute
            e01, i00 = (basis_element(triple.field, triple.n, 0, j, c) for j, c in ((1, 0), (0, 1)))

            def shifted(p, z, w):
                xh, yh = element_images(p, z, w)
                xh, yh = xh + e01, yh + i00
                parts.append((bracket(z, w).norm() ** 2, bracket(xh, yh).norm() ** 2))
                return xh, yh

            return real(triple, method, z_dom, (images, shifted), *rest)

        monkeypatch.setattr(certify, "_flat_plane_search", patched)
        if search == "scan":
            argv = ["scan", "--entry", "t1s3_product", "--s-values", "0", "--starts", "4"]
        else:
            argv = ["check", "--entry", "m_kl", "--n", "2", "--k", "0", "--l", "1",
                    "--method", "part2", "--starts", "8"]
        code, out, _ = run(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        report = doc[0] if search == "scan" else doc
        assert report["verdict"] == "INCONCLUSIVE" and report["witness"] is None
        assert report["score"] < 1e-12
        found = [m.groups() for m in map(TestUnconfirmedRefutation.NOTE.match, report["notes"]) if m]
        # an unconfirmed probe (part2's 8 starts) is discarded and all starts descend
        assert len(parts) == (1 if search == "scan" else 2) and len(found) == 1
        comm, term = parts[-1]
        assert term > 1e-12
        assert found[0] == (repr(report["score"]), repr(1e-12), repr(comm + term))

    def test_a_refuting_scan_point_brackets_once_per_term(self, capsys, monkeypatch):
        # the element path re-checks [Z, W] and [X^h, Y^h], and builds no group element
        counts = collections.Counter()
        for name in ("bracket", "check_unitary"):
            real = getattr(algebra, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            for module in (algebra, catalog, certify, cli_module, flatness, triple_module):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        code, out, _ = run(capsys, "scan", "--entry", "t1s3_product", "--s-values", "0",
                           "--starts", "4")
        assert code == 1 and json.loads(out)[0]["verdict"] == "REFUTED"
        assert (counts["bracket"], counts["check_unitary"]) == (2, 0)


class TestDegenerateReports:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # t1_sphere(3) with h = g (p = 0, empty search domains) and with k = h (dim m = 0)
        t = t1_sphere(3)
        g, h = elements(t.triple.g_basis), elements(t.triple.h_basis)
        k = elements(t.triple.k_basis)
        out = {}
        for name, (hs, ks) in {"p0": (g, k), "m0": (h, h)}.items():
            out[name] = str(tmp_path_factory.mktemp("triples") / f"{name}.json")
            save_triple(make_triple(g, hs, ks, label=name, base_point=t.base_point_A), out[name])
        return out

    @pytest.mark.parametrize("name,argv,code", [
        ("p0", ["check", "--method", "fat", "--starts", "4"], 0),
        # vacuous, but A in h is not in p = 0
        ("p0", ["check", "--method", "part2", "--starts", "4"], 2),
        # A is not in p = 0 either: no search, every point INCONCLUSIVE
        ("p0", ["scan", "--s-values", "0,0.2", "--starts", "4"], 2),
        ("m0", ["check", "--method", "part3"], 0),
    ])
    def test_infinite_score_is_written_as_null(self, capsys, files, name, argv, code):
        got, out, _ = run(capsys, *argv, "--file", files[name])
        assert got == code
        docs = strict_json(out)
        for doc in docs if isinstance(docs, list) else [docs]:
            assert doc["schema"] == "curvcert-report/2"
            assert doc["score"] is None

    @pytest.mark.parametrize("argv", [["check", "--method", "part2", "--starts", "4"],
                                      ["check", "--method", "part3"],
                                      ["scan", "--s-values", "0,0.2", "--starts", "4"]])
    def test_a_outside_p0_is_inconclusive_for_every_method(self, capsys, files, argv):
        # t1_sphere(3)'s A lies in h = g: part2 and part3 said so, while the scan
        # read its empty search domain as vacuously positive, exit 0
        code, out, _ = run(capsys, *argv, "--file", files["p0"])
        assert code == 2
        docs = strict_json(out)
        for doc in docs if isinstance(docs, list) else [docs]:
            assert doc["verdict"] == "INCONCLUSIVE" and doc["witness"] is None
            assert doc["notes"][-1] == "precondition failed: A does not lie in p"

    def test_library_report_is_strict_json(self, files):
        report = check_fatness(load_triple(files["p0"]), StartBudget(starts=4))
        assert report.score == math.inf  # the report object keeps inf
        assert strict_json(report_to_json(report))["score"] is None


# Exit codes and stdout digests of fat, part2 and a 2-point scan at 8 starts on
# every catalog entry that builds at n = 1, taken while a Z-domain with no
# orthonormal pair still went to the search.  Then pt_projective(R,1), where
# g minus k is p of dimension 1, had fat and part2 INCONCLUSIVE (score null,
# "0 of 8 starts converged") after its starts divided by zero; both are now
# vacuously CERTIFIED, as its scan (over m = 0) was.  No other report moved.
ONE_DIMENSIONAL_RUNS = {
    "fat": ["check", "--method", "fat"],
    "part2": ["check", "--method", "part2"],
    "scan": ["scan", "--s-values", "0,0.1"],
}
ONE_DIMENSIONAL_DIGESTS = {
    ("pt_projective", "R"): {
        "scan": (0, "4ee52897d625ae4b342e4fedb0736e78e5fe2cab14c97f49be45e5a809604c47"),
    },
    ("pt_projective", "C"): {
        "fat": (0, "4a697035ac40e839ec4d32bb6499b7bd26fdcb12192b97a93a7b4ba47dafc286"),
        "part2": (0, "b0e3c9079dff978ec1fe461819b5ca225f2cbcb442b20f7e3462a703efc8749c"),
        "scan": (0, "c3a3d38510948a8b1034d5752e70211d098d715048fe8b72ceb8effeb131d5fd"),
    },
    ("pt_projective", "H"): {
        "fat": (0, "d7b88aaa1f9addc96c6572a09e92b6c4ff35bbe8fd058635c4a2c9900778a639"),
        "part2": (0, "dba9d1e82220f8673c0fddab8fdd9746d1e04102ef0dfeb2790e57df11ad7a93"),
        "scan": (0, "10eb9f19c53672e2760cad38f00d02cee2e68a54642040ac3601309a89514d69"),
    },
    ("t1_projective", "C"): {
        "fat": (0, "a71e96c115ac1a14391e322b0847aaddce43d35a7a83de94146d338414d88925"),
        "part2": (0, "7973c67b0826e01633ee8b41fac26de9a9fd7612d006c6ddabdca86b85f173b9"),
        "scan": (0, "4f196dc8f16def97c908404f0024b06457f73d3a4815dc011ec721b07dabcd9c"),
    },
    ("t1_projective", "H"): {
        "fat": (1, "d2382207a3439eddf0d7dc363b15499ac5f4371cf6c70eaa41e9d55045c42d28"),
        "part2": (0, "ddf3caa9ca0bd17335c58c8aa637aae5741c0d2edb11f9f53acb550d59db59a6"),
        "scan": (1, "8eb6391d3c067cd6f18a2d9c782c3eeda195072bd10a6956deff8241bcac7371"),
    },
}


class TestOneDimensionalChains:
    """n = 1: a search with no admissible pair is vacuous, and every other report stands."""

    def test_the_pinned_entries_are_all_that_build(self):
        built = set()
        for row in list_catalog():
            for field in (None, "R", "C", "H"):
                try:
                    build_entry(row["id"], n=1, field=field)
                except ValueError:
                    continue
                built.add((row["id"], field))
        assert built == set(ONE_DIMENSIONAL_DIGESTS)

    @pytest.mark.parametrize("method", sorted(ONE_DIMENSIONAL_RUNS))
    @pytest.mark.parametrize("entry", sorted(ONE_DIMENSIONAL_DIGESTS),
                             ids=lambda entry: f"{entry[0]}({entry[1]},1)")
    def test_reports(self, capsys, entry, method):
        # a start that divides by zero warns, and the warning fails the test
        code, out, _ = run(capsys, *ONE_DIMENSIONAL_RUNS[method], "--entry", entry[0],
                           "--n", "1", "--field", entry[1], "--starts", "8")
        if method in ONE_DIMENSIONAL_DIGESTS[entry]:
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
                ONE_DIMENSIONAL_DIGESTS[entry][method]
            return
        doc = strict_json(out)
        note = {"fat": "degenerate triple (no Z orthogonal to a W in p): vacuously fat",
                "part2": "degenerate triple (no Z orthogonal to a W in p): vacuous"}[method]
        assert code == 0 and doc["verdict"] == "CERTIFIED"
        assert doc["score"] is None and doc["witness"] is None
        assert (doc["starts"], doc["notes"]) == (8, [note])


def usage_exit_code(*argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


class TestFlagSets:
    TRIPLE = {"--entry", "--file", "--n", "--k", "--l", "--field", "--out"}
    RUN = TRIPLE | {"--A", "--seed", "--starts", "--tol", "--refute-tol", "--config", "--timing"}

    def test_each_subcommand_takes_only_flags_that_act(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {opt for action in parser._actions for opt in action.option_strings}
                 - {"-h", "--help"} for name, parser in sub.choices.items()}
        assert flags == {
            "list": {"--format", "--out"},
            "check": self.RUN | {"--method"},
            "scan": self.RUN | {"--format", "--s-values"},
            "export": self.TRIPLE,
        }

    @pytest.mark.parametrize("flag", [["--t", "0.5"], ["--workers", "2"]])
    @pytest.mark.parametrize("command", [["check", "--method", "fat"],
                                         ["scan", "--s-values", "0.1"]])
    def test_removed_flags_exit_3(self, command, flag):
        assert usage_exit_code(*command, "--entry", "t1s3_product", "--starts", "4", *flag) == 3

    @pytest.mark.parametrize("flag", [["--A", "[]"], ["--seed", "1"], ["--starts", "4"],
                                      ["--tol", "1e-6"], ["--refute-tol", "1e-12"],
                                      ["--format", "json"], ["--config", "run.cfg"], ["--timing"],
                                      ["--t", "0.5"], ["--workers", "2"]])
    def test_export_rejects_run_flags(self, flag):
        assert usage_exit_code("export", "--entry", "t1s3_product", *flag) == 3

    @pytest.mark.parametrize("key", ["t = 0.5", "workers = 2"])
    def test_removed_config_keys_exit_3(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(key + "\n")
        code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", "fat",
                             "--starts", "4", "--config", str(cfg))
        assert code == 3 and out == ""
        assert "unknown config key" in err

    def test_check_format_flag_exits_3(self):
        assert usage_exit_code("check", "--entry", "t1s3_product", "--method", "part3",
                               "--format", "csv") == 3

    def test_check_format_config_key_other_than_json_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        argv = ["check", "--entry", "t1s3_product", "--method", "part3", "--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "JSON only" in err
        # check writes JSON whatever the key says, so json is refused too
        cfg.write_text("format = json\n")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "config key format does not apply to check --method part3 (JSON only)" in err

    def test_check_rejects_s_values_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for line in ("s_values = 0.1, 0.2", "s_values ="):  # an empty list is refused too
            cfg.write_text(line + "\n")
            code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", "part3",
                                 "--config", str(cfg))
            assert code == 3 and out == ""
            assert "config key s_values does not apply to check --method part3 (scan only)" in err

    @pytest.mark.parametrize("argv,text", [(["check", "--method", "fat"], "tol = inf"),
                                           (["scan"], "s_values = 0, inf"),
                                           (["scan"], "s_values = 0.1\nformat = xml")])
    def test_settings_that_cannot_run_exit_3(self, capsys, tmp_path, argv, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        code, out, _ = run(capsys, *argv, "--entry", "t1s3_product", "--starts", "4",
                           "--config", str(cfg))
        assert code == 3 and out == ""


_SEARCH_RUNS = {"fat": ["check", "--method", "fat"], "part2": ["check", "--method", "part2"],
                "scan": ["scan", "--s-values", "0,0.1"]}


class TestSettingRanges:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("method", sorted(_SEARCH_RUNS))
    def test_negative_seed_exits_3_before_the_triple_is_built(self, capsys, monkeypatch,
                                                             tmp_path, method, source):
        built = []
        monkeypatch.setattr(cli_module, "build_entry", lambda *a, **kw: built.append(a) or 1 / 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        seed = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run(capsys, *_SEARCH_RUNS[method], "--entry", "t1s3_product",
                             "--starts", "4", *seed)
        assert (code, out, built) == (3, "", [])
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("method,extra", [("part3", []), ("part2", ["--starts", "8"])])
    def test_tol_below_the_default_refute_tol_runs_where_refute_tol_is_not_read(
            self, capsys, method, extra):
        code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", method,
                             "--tol", "1e-13", *extra)
        doc = json.loads(out)
        assert (code, err, doc["verdict"]) == (0, "", "CERTIFIED")
        assert doc["tolerance"] == doc["config"]["tol"] == 1e-13

    @pytest.mark.parametrize("method,tols", [
        ("fat", ["--tol", "1e-13"]),
        ("fat", ["--tol", "1e-6", "--refute-tol", "1e-6"]),
        ("scan", ["--refute-tol", "1e-5"]),
    ])
    def test_refute_tol_at_or_above_tol_exits_3_where_it_is_read(self, capsys, method, tols):
        code, out, err = run(capsys, *_SEARCH_RUNS[method], "--entry", "t1s3_product",
                             "--starts", "4", *tols)
        assert code == 3 and out == ""
        assert "need 0 < refute_tol < tol < inf" in err

    @pytest.mark.parametrize("key,value,argv", [
        ("seed", "x", _SEARCH_RUNS["fat"]),
        ("starts", "4.5", _SEARCH_RUNS["part2"]),
        ("tol", "small", ["check", "--method", "part3"]),
        ("s_values", "0,x", ["scan"]),
    ])
    def test_config_value_that_does_not_parse_names_its_key(self, capsys, tmp_path, key, value,
                                                            argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, *argv, "--entry", "t1s3_product", "--config", str(cfg))
        assert (code, out) == (3, "")
        assert err.startswith(f"curvcert: error: config key {key}: ")
        if key == "seed":
            assert err == ("curvcert: error: config key seed: invalid literal for int() with"
                           " base 10: 'x'\n")


def _content(out: str):
    """A run's output without its config block: the JSON report(s), or the text of a CSV scan."""
    try:
        docs = json.loads(out)
    except json.JSONDecodeError:
        return out
    return [{k: v for k, v in doc.items() if k != "config"}
            for doc in (docs if isinstance(docs, list) else [docs])]


def _options(command: str) -> set:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions for opt in action.option_strings}


# sp_example(2)'s A scaled by sqrt(2): in p, but not the entry's A
_OTHER_A = json.dumps([0.0] * 4 + [1.0] + [0.0] * 7 + [-1.0] + [0.0] * 23)
_SETTINGS = {  # a value other than the default run's, as a flag and as a config line
    "seed": (["--seed", "5"], "seed = 5"),
    "starts": (["--starts", "3"], "starts = 3"),
    "tol": (["--tol", "1e-5"], "tol = 1e-5"),
    "refute_tol": (["--refute-tol", "1e-20"], "refute_tol = 1e-20"),
    "s_values": (["--s-values", "0,0.3"], "s_values = 0, 0.3"),
    "format": (["--format", "csv"], "format = csv"),
    "A": (["--A", _OTHER_A], None),
}
_RUNS = {  # each run with the config lines of its default run
    "fat": (["check", "--method", "fat"], {"starts": "starts = 4"}),
    "part2": (["check", "--method", "part2"], {"starts": "starts = 4"}),
    "part3": (["check", "--method", "part3"], {}),
    "scan": (["scan"], {"starts": "starts = 4", "s_values": "s_values = 0, 0.1"}),
}
# every setting each run can be given: as a flag where its command has one
_CASES = [(method, setting, source) for method, (argv, _) in sorted(_RUNS.items())
          for setting, (flag, line) in sorted(_SETTINGS.items())
          for source, given in (("flag", flag[0] in _options(argv[0])),
                                ("config key", line is not None)) if given]


class TestInputContract:
    """Every input a run is given acts on its output, or the run refuses it.

    A run setting, as a flag and as a config key, must change the report
    (its config block aside) from the default run's, or end in exit 3 with
    "does not apply"; so must an entry parameter on export.
    """

    @pytest.mark.parametrize("method,setting,source", _CASES)
    def test_run_settings_act_or_are_refused(self, capsys, tmp_path, method, setting, source):
        flag, line = _SETTINGS[setting]
        argv, base = _RUNS[method]
        cfg = tmp_path / "run.cfg"

        def output(lines, extra=()):
            cfg.write_text("".join(f"{x}\n" for x in lines.values()))
            return run(capsys, *argv, "--entry", "sp_example", "--n", "2", "--config", str(cfg),
                       *extra)

        code, default, _ = output(base)
        assert code != 3
        if source == "flag":
            code, out, err = output(base, flag)
        else:
            code, out, err = output({**base, setting: line})
        if code == 3:
            assert out == "" and "does not apply" in err
        else:
            assert _content(out) != _content(default)

    ENTRIES = {  # each entry with the parameters of its default export
        "t1s3_product": {},
        "t1_sphere": {"n": "3"},
        "t1_projective": {"n": "2", "field": "C"},
        "pt_projective": {"n": "2", "field": "R"},
        "m_kl": {"n": "2", "k": "1", "l": "1"},
        "sp_example": {"n": "2"},
    }
    OTHER = {"n": "4", "k": "2", "l": "-1", "field": "H"}  # none is an entry's own value

    @pytest.mark.parametrize("spelling", ["c", "Complex", "COMPLEX", "complex", "C"])
    def test_field_takes_every_spelling_build_entry_takes(self, capsys, spelling):
        # the spellings live in catalog.build_entry alone, in any case
        code, out, _ = run(capsys, "export", "--entry", "t1_projective", "--n", "2",
                           "--field", spelling)
        assert code == 0 and out == run(capsys, "export", "--entry", "t1_projective", "--n", "2",
                                        "--field", "C")[1]

    def test_unknown_field_exits_3_with_build_entry_message(self, capsys):
        code, out, err = run(capsys, "export", "--entry", "t1_projective", "--n", "2",
                             "--field", "x")
        assert code == 3 and out == ""
        assert err == ("curvcert: error: unknown field 'x': expected real|complex|quaternion"
                       " or R|C|H, in any case\n")

    @pytest.mark.parametrize("param", sorted(OTHER))
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_entry_parameters_act_or_are_refused(self, capsys, entry, param):
        params = self.ENTRIES[entry]

        def export(given):
            return run(capsys, "export", "--entry", entry,
                       *[x for name, value in given.items() for x in (f"--{name}", value)])

        code, default, _ = export(params)
        assert code == 0
        code, out, err = export({**params, param: self.OTHER[param]})
        if code == 3:
            assert out == "" and f"--{param} does not apply to --entry {entry}" in err
        else:
            assert code == 0 and out != default


class TestRepeatedMain:
    """main() parses with one parser per process; no call may see another's flags."""

    def test_check_without_A_after_check_with_A_uses_the_entry_default(self, capsys):
        argv = ["check", "--entry", "t1_sphere", "--n", "3", "--method", "part3"]
        _, default, _ = run(capsys, *argv)
        other = [0.0] * 16  # 2 * E_{0,1}: in p, but not the entry's A
        other[1], other[4] = 2.0, -2.0
        _, inline, _ = run(capsys, *argv, "--A", json.dumps(other))
        assert json.loads(inline)["score"] != json.loads(default)["score"]
        assert run(capsys, *argv)[1] == default

    def test_scan_after_csv_scan_writes_json(self, capsys):
        argv = ["scan", "--entry", "t1s3_product", "--s-values", "0.1", "--starts", "4"]
        _, csv, _ = run(capsys, *argv, "--format", "csv")
        assert csv.startswith("s,verdict,score")
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)[0]["config"]["format"] == "json"


class TestInlineA:
    def test_inline_component_list(self, capsys):
        # A = (i, -i)/sqrt(2) for the sp(1)+sp(1) model as a bare component list
        v = 1.0 / SQ2
        matrix = [
            [[0.0, v, 0.0, 0.0], [0.0] * 4],
            [[0.0] * 4, [0.0, -v, 0.0, 0.0]],
        ]
        code, out, _ = run(capsys, "check", "--entry", "t1s3_product",
                           "--method", "part3", "--A", json.dumps(matrix))
        assert code == 0
        assert math.isclose(json.loads(out)["score"], SQ2, rel_tol=1e-10)

    def test_file_without_base_point_needs_A(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        run(capsys, "export", "--entry", "t1s3_product", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["base_point"] = None
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 3
        assert "A" in err



def _tilted_a(eps: float) -> str:
    """t1s3_product's A plus eps times h's first basis vector, normalized, as a component list."""
    triple = build_entry("t1s3_product").triple
    v = triple.base_point.flat + eps * triple.h_basis.mat[0]
    return json.dumps((v / np.linalg.norm(v)).tolist())


class TestBasePointOffP:
    """Whether A lies in p is read to a fixed 1e-8, whatever the curvature tolerance tol."""

    @pytest.mark.parametrize("argv", [
        ["check", "--method", "part3", "--tol", "1e-2"],
        ["check", "--method", "part2", "--starts", "8", "--tol", "1e-2"],
        ["scan", "--s-values", "0.1", "--starts", "4", "--tol", "1e-2"],
        ["check", "--method", "part3"],  # the default tol, 1e-6, above the tilt of 1e-7
    ])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_a_tilted_into_h_is_inconclusive(self, capsys, argv, eps):
        code, out, _ = run(capsys, *argv, "--entry", "t1s3_product", "--A", _tilted_a(eps))
        assert code == 2
        docs = json.loads(out)
        for doc in docs if isinstance(docs, list) else [docs]:
            assert doc["verdict"] == "INCONCLUSIVE" and doc["score"] is None
            assert doc["notes"][-1] == "precondition failed: A does not lie in p"


def _scaled_a(c: float) -> str:
    """t1_sphere(3)'s A, the unit (E_01 - E_10)/sqrt(2), times c, as an --A list."""
    comp = np.zeros(16)
    comp[1], comp[4] = c / SQ2, -c / SQ2
    return json.dumps(comp.tolist())


class TestBasePointNotUnit:
    """A must be a unit vector, to the fixed 1e-8 of the A-in-p check: every criterion scales with |A|.

    A short A reads as flat: at |A| = 1e-8, part3's sigma_min is 7.07e-9 and
    part2's minimum 2.5e-17, both below their thresholds, and A = 0 would
    refute part3 and every scan point.
    """

    RUNS = [
        ["check", "--method", "part3"],
        ["check", "--method", "part2", "--starts", "8"],
        ["scan", "--s-values", "0,0.1", "--starts", "4"],
    ]

    @pytest.mark.parametrize("argv", RUNS)
    @pytest.mark.parametrize("c", [0.0, 1e-8, 1e-6, 1.0 - 1e-6, 2.0])
    def test_a_not_of_unit_length_is_inconclusive(self, capsys, argv, c):
        code, out, _ = run(capsys, *argv, "--entry", "t1_sphere", "--n", "3", "--A", _scaled_a(c))
        assert code == 2
        docs = json.loads(out)
        for doc in docs if isinstance(docs, list) else [docs]:
            assert doc["verdict"] == "INCONCLUSIVE" and doc["score"] is None
            assert doc["witness"] is None
            note = re.fullmatch(r"precondition failed: A is not a unit vector \(\|A\| = (.*)\)",
                                doc["notes"][-1])
            assert note and math.isclose(float(note[1]), c, rel_tol=1e-15)

    @pytest.mark.parametrize("argv", RUNS)
    def test_a_unit_to_1e_8_runs(self, capsys, argv):
        by_entry = run(capsys, *argv, "--entry", "t1_sphere", "--n", "3")
        code, out, _ = run(capsys, *argv, "--entry", "t1_sphere", "--n", "3",
                           "--A", _scaled_a(1.0 + 5e-9))
        assert code == by_entry[0] and "unit vector" not in out


def _closing_reader(*argv):
    """Exit code, first 10 bytes and stderr of `python -m curvcert.cli argv` whose reader
    closes its end after 10 bytes."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join([src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])
    proc = subprocess.Popen([sys.executable, "-m", "curvcert.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), head, err


class TestClosedPipe:
    """A reader that stops early is not an input error: the run keeps its exit code, quietly."""

    @pytest.mark.parametrize("argv,code", [
        (["check", "--entry", "sp_example", "--n", "4", "--method", "part3"], 0),
        (["check", "--entry", "sp_example", "--n", "2", "--method", "fat", "--starts", "8"], 1),
        # the next two write more than a pipe holds (64 KiB on Linux), so they meet the
        # closed end for certain
        (["export", "--entry", "sp_example", "--n", "4"], 0),
        (["scan", "--entry", "t1s3_product", "--starts", "1",
          "--s-values", ",".join(str(i / 100) for i in range(1, 41))], 0),
        (["list"], 0),
    ])
    def test_run_keeps_its_exit_code_and_writes_no_error(self, argv, code):
        got, head, err = _closing_reader(*argv)
        assert (got, err.decode()) == (code, "")
        assert len(head) == 10


# the config block of a run given no setting
_DEFAULT_CONFIG = {"seed": 0, "starts": 64, "tol": 1e-6, "refute_tol": 1e-12, "s_values": [],
                   "format": "json"}
# a value other than the default for each setting that a certifier reads
_GIVEN = {"seed": 5, "starts": 3, "tol": 1e-5, "refute_tol": 1e-20, "s_values": [0.0, 0.3]}
_BUDGET = StartBudget(starts=3, seed=5)
_PARITY = {  # each run: its command, the settings it reads, and the library call with _GIVEN
    "fat": (["check", "--method", "fat"], ("seed", "starts", "tol", "refute_tol"),
            lambda t: check_fatness(t, budget=_BUDGET, tol=1e-5, refute_tol=1e-20)),
    "part2": (["check", "--method", "part2"], ("seed", "starts", "tol"),
              lambda t: certify_part2(t, t.base_point, budget=_BUDGET, tol=1e-5)),
    "part3": (["check", "--method", "part3"], ("tol",),
              lambda t: certify_part3(t, t.base_point, tol=1e-5)),
    "scan": (["scan"], ("seed", "starts", "tol", "refute_tol", "s_values"),
             lambda t: scan_along_A(t, t.base_point, [0.0, 0.3], budget=_BUDGET, tol=1e-5,
                                    refute_tol=1e-20)),
}


def _given_argv(method: str, source: str, tmp_path) -> list:
    """The argv of a run on sp_example(2) given the _GIVEN settings it reads, as flags or config."""
    command, reads, _ = _PARITY[method]
    text = {key: ",".join(map(str, v)) if isinstance(v, list) else str(v)
            for key, v in _GIVEN.items() if key in reads}
    if source == "flag":
        extra = [x for key, v in text.items() for x in ("--" + key.replace("_", "-"), v)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {v}\n" for key, v in text.items()))
        extra = ["--config", str(cfg)]
    return [*command, "--entry", "sp_example", "--n", "2", *extra]


class TestSettingsReachTheirArgument:
    """Each setting a run is given reaches the certifier argument of the same meaning."""

    @pytest.mark.parametrize("source", ["flag", "config key"])
    @pytest.mark.parametrize("method", sorted(_PARITY))
    def test_report_is_the_library_call_with_the_same_arguments(self, capsys, tmp_path,
                                                                method, source):
        _, reads, call = _PARITY[method]
        code, out, err = run(capsys, *_given_argv(method, source, tmp_path))
        assert code != 3, err
        docs = json.loads(out)
        docs = docs if isinstance(docs, list) else [docs]
        result = call(build_entry("sp_example", n=2).triple)
        want = [report_to_dict(rep) for rep in (result if isinstance(result, list) else [result])]
        assert [{k: v for k, v in doc.items() if k != "config"} for doc in docs] == want
        given = {key: v for key, v in _GIVEN.items() if key in reads}
        assert all(doc["config"] == {**_DEFAULT_CONFIG, **given} for doc in docs)

    # a profiler's timing wrapper takes (*args, **kwargs), as perfbench's tracer does
    @pytest.mark.parametrize("method,name", [("fat", "check_fatness"), ("part2", "certify_part2"),
                                             ("part3", "certify_part3"), ("scan", "scan_along_A")])
    def test_a_wrapped_certifier_is_called_with_the_same_arguments(self, capsys, monkeypatch,
                                                                   tmp_path, method, name):
        argv = _given_argv(method, "flag", tmp_path)
        want = run(capsys, *argv)
        original = getattr(cli_module, name)
        monkeypatch.setattr(cli_module, name, lambda *args, **kwargs: original(*args, **kwargs))
        assert run(capsys, *argv) == want


class TestScanOutput:
    """--out, --timing and the config keys of a scan, through the body that check shares."""

    ARGV = ["scan", "--entry", "t1s3_product", "--s-values", "0,0.1", "--starts", "4"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_writes_the_file_and_nothing_to_stdout(self, capsys, tmp_path, fmt):
        path = tmp_path / f"scan.{fmt}"
        code, out, _ = run(capsys, *self.ARGV, "--format", fmt, "--out", str(path))
        assert (code, out) == (1, "")  # the s = 0 point refutes
        code, stdout, _ = run(capsys, *self.ARGV, "--format", fmt)
        assert code == 1 and path.read_text() + "\n" == stdout

    def test_timing_adds_wall_time_to_every_report(self, capsys):
        _, out, _ = run(capsys, *self.ARGV, "--timing")
        assert all("wall_time_ms" in doc for doc in json.loads(out))
        _, out, _ = run(capsys, *self.ARGV)
        assert not any("wall_time_ms" in doc for doc in json.loads(out))

    def test_output_path_is_not_a_config_key(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output_path = {path}\n")
        code, out, err = run(capsys, *self.ARGV, "--config", str(cfg))
        assert (code, out) == (3, "")
        assert "unknown config key: output_path" in err
        assert not path.exists()


# sha256 of the stdout of `export` and `check --method part3`, taken before the
# structural layer moved to batched brackets; bytes must not change.  The part3
# digests were re-taken for the report schema curvcert-report/2, which dropped
# the no-op `t` and `workers` keys from the config block, and again when part3
# began to read [m_i, A] as coordinates along g: a different summation order
# moves the last digit of the score (WHOLE_BRACKET_SCORES below).  The t1_sphere
# export digests were re-taken when its k became so(n-1) on slots 2..n as
# generator rows instead of the stabilizer's null-space rows (its digests before
# are OLD_T1_SPHERE_EXPORTS); their part3 digests did not move.
PINNED_DIGESTS = {
    ("t1s3_product",): (
        "0cf3c78e15f9bea425f5d1a752a36e8f97773a7792a1d39b150f48f7802106ef",
        "7fe2600819776952ec9dd2ceddcbf037911c7b51940efa2f1e2421b86f27ec20",
    ),
    ("t1_sphere", "--n", "4"): (
        "6cff2680d23eca35bb8c7ea17baae3c33ea99e2800820ff864bd105edf6bed09",
        "fd0bd08df7dc681c47522ca3305173b900cba6fac82e5ce71c998e501bf109ad",
    ),
    ("sp_example", "--n", "3"): (
        "20d6270465e012560ce89bd3894ca712f3315b361485cfe51ee45e90b0402a5c",
        "34f2a9fd02c3693bda575932ee369a1308c641f6173a78dccda345da1b496659",
    ),
    # one pin per family and field, taken before the catalog spans were built as
    # generator stacks with closed-form orthonormalization of disjoint rows
    ("t1_projective", "--field", "C", "--n", "2"): (
        "54a8c33351115105bc72043975a5555b66706dad16747546271806c94ede633a",
        "f0d8ea068d02b32b837af9da5de6fffb15a7e0a0d93874038dafdc394c02e8da",
    ),
    ("t1_projective", "--field", "H", "--n", "3"): (
        "a74c0820a1c7f914b9270f290031aefd2fc118563caafb8347849e24096212d2",
        "200503c1c9b13117f269f15b20b80b9d22a66f27c25a7b4fd55bf79334f9636d",
    ),
    ("pt_projective", "--field", "R", "--n", "2"): (
        "85aa73a80eac13b16744626be10b5e7d3b036482704854ca180b26e1dd8dd3a2",
        "4d255d242df5c77899e288a1fbc8fcc70d4152bf65ecf9c5afe3631b335852c9",
    ),
    ("pt_projective", "--field", "C", "--n", "2"): (
        "86140a172129930d52fa19252179f488e8ba8043d5797b23a2239066526f65d5",
        "c331a5ab190378134e6b14d76a9dad5557ba029590af678bb0b7a3b7fdd49dfb",
    ),
    ("pt_projective", "--field", "H", "--n", "2"): (
        "ee2d748c19b3c5522e0decd72306f87d09a14f8418ed7804dca8fdb4eb259154",
        "29824ec7c27b613290c19a496d315089c5178861259c0ebdc4c37ab24fd6993e",
    ),
    ("m_kl", "--n", "2", "--k", "1", "--l", "1"): (
        "d7d71be702bf50bcbeaa6fc0cfbd1db5fbf741340cae4c828d40e4142fd1d871",
        "fadc14e6ffd5be204251c62c65824bc1adbcea1d226511a0d4fbdaa29dc22238",
    ),
    ("m_kl", "--n", "2", "--k", "0", "--l", "1"): (
        "91aabf31bba83e4fd4150af77b188f3f9cd7252fbee61dfa3e2e50fa7617aa00",
        "5a2c397566498b89cef4d668806eb66e351d52620d8d71f97a04fdf3294e8afa",
    ),
    ("t1_sphere", "--n", "10"): (
        "df9796c611113db27ecf7ba6bd87655ee8b54bc8f23fa2a6ff37d30cf3409429",
        "13facab33f6f0eac4ca533eedf9eabc4d3f838fe79a16b7206435613cadf4bbf",
    ),
    ("sp_example", "--n", "8"): (
        "dbe9b4dd36a643701d7c2cb91b44cce57e4a363b690a0b08fd0354a5f7d61874",
        "f99f0bd29cddddf06400e95caa78347da1d14e78c9a6a7d661b243c6b21e85ba",
    ),
}
# part3 exit codes other than 0 (CERTIFIED): k = 0 lies outside the certified family
PINNED_PART3_CODES = {("m_kl", "--n", "2", "--k", "0", "--l", "1"): 1}

# sha256 of the stdout of the three searches, taken before every search tensor
# went through the all-pairs bracket kernel; bytes must not change.  Fat and
# the scan refute (a scan refutes at s = 0), part2 certifies.  The m_kl part2
# and scan and the sp_example(2) scan digests were re-taken when the search
# tensors became coordinates along g and h (WHOLE_BRACKET_SCORES below).  The
# part2 digests were re-taken when part2 became a flat-plane search, whose
# score is the joint minimum of |[Z, W]|^2 + |[Z^h, [A, W]^h]|^2.  The fat
# and scan digests were re-taken when a search start began to stop at its
# first value below refute_tol/2, which every refuting report shows, and the
# fat digests again when a search of more than 4 starts began to refute from
# a probe of its first 4.  The part2 runs (8 starts) take the probe and fall
# back to the full search, and the scans (4 starts) take none: their digests
# did not move.
SEARCH_RUNS = {
    "fat": (["check", "--method", "fat", "--starts", "16"], 1),
    "part2": (["check", "--method", "part2", "--starts", "8"], 0),
    "scan": (["scan", "--s-values", "0,0.05,0.1,0.2,0.4,0.8", "--starts", "4"], 1),
}
PINNED_SEARCH_DIGESTS = {
    ("t1_sphere", "--n", "3"): {
        "fat": "61f95cce6ac26e846f0e1b7d0dd4b299a32d73133c89e91c44bf5ddb18712524",
        "part2": "d02bf29ab2e2ffbec52bf0e4a6f8e6ca6ac8f8dec1e610d82e3f5895f4cea73a",
        "scan": "985c59f29f54d7915ed64c122bb295d0d4efb970b917f61302cb91d1f72dc073",
    },
    ("m_kl", "--n", "2", "--k", "1", "--l", "1"): {
        "fat": "701d67d65b9c0591cc1abbb782d317db75f6c291a11441af03b4e9dd419577cc",
        "part2": "4a29a8f76e188f28826eab8577b0d0af5ae6120b65eac973546f4688642b5efc",
        "scan": "540bca6d9f73ab1db92bcfcbe3d1c09950b87874df178796ee8523c5ac387119",
    },
    ("sp_example", "--n", "2"): {
        "fat": "2899fe8ffa7bbda25d15901e32c8918a3004e6e2b55a4554903aaa74b5451b38",
        "part2": "d223fb2309a319b527efecf0a0b54029752d1ccc169abdbf7be0f8ce50e411ab",
        "scan": "7b6f45b8c92d884ff449c914e11ca264df40e503bf1c6e964eab86eb74b9ce22",
    },
}


# The scores of the pinned runs whose digests moved when every bracket of
# basis stacks became coordinates along g or h, as written when brackets were
# read whole, in coordinates of all of so(n), u(n) or sp(n).  part3 is
# one SVD, so its scores move by rounding only: 1e-14 relative, or 1e-15 for
# a zero.  A search value at a positive minimum is fixed only to the descent's
# stop rule, an accepted step that lowers f by at most 1e-12 relative, and the
# m_kl scan points at s = 0.05..0.2 stop at max_iters; so 1e-12 there.  A
# refuting score is the first value below refute_tol/2 that a start reached:
# the sp_example(2) scan at s = 0 was 3.3585029967475632e-28 when starts
# went on to the rounding floor (the m_kl one is now 3.7e-19, inside atol).
WHOLE_BRACKET_SCORES = {
    # the t1s3_product part3 digest did not move
    **{(entry, "part3"): [0.7071067811865476] for entry in PINNED_DIGESTS
       if entry[0] not in ("m_kl", "t1s3_product")},
    (("m_kl", "--n", "2", "--k", "1", "--l", "1"), "part3"): [0.1909830056250525],
    (("m_kl", "--n", "2", "--k", "0", "--l", "1"), "part3"): [0.0],
    # part2's joint minimum, taken when part2 became a flat-plane search; the
    # penalty search's constrained minimum, read whole, was 0.02144638613761435
    (("m_kl", "--n", "2", "--k", "1", "--l", "1"), "part2"): [0.013905889477258935],
    (("m_kl", "--n", "2", "--k", "1", "--l", "1"), "scan"): [
        0.0, 5.326122601456771e-05, 0.00020883199198153333, 0.000770861988515565,
        0.002217878344292185, 0.0018146977477164173],
    (("sp_example", "--n", "2"), "scan"): [
        1.1464099342374348e-13, 0.0012428624532111452, 0.004886985634693992,
        0.018273479895458123, 0.05744831802280784, 0.12350778952747268],
}


@pytest.mark.parametrize("entry,method", sorted(WHOLE_BRACKET_SCORES))
def test_moved_scores_agree_with_whole_bracket_scores(capsys, entry, method):
    argv = ["check", "--method", "part3"] if method == "part3" else SEARCH_RUNS[method][0]
    _, out, _ = run(capsys, *argv, "--entry", *entry)
    doc = json.loads(out)
    got = [rep["score"] for rep in (doc if isinstance(doc, list) else [doc])]
    rel = 1e-14 if method == "part3" else 1e-12
    np.testing.assert_allclose(got, WHOLE_BRACKET_SCORES[entry, method], rtol=rel, atol=1e-15)


@pytest.mark.parametrize("entry", sorted(PINNED_DIGESTS))
def test_pinned_output_digests(capsys, entry):
    export_sha, part3_sha = PINNED_DIGESTS[entry]
    part3_code = PINNED_PART3_CODES.get(entry, 0)
    for argv, want, want_code in ((["export"], export_sha, 0),
                                  (["check", "--method", "part3"], part3_sha, part3_code)):
        code, out, _ = run(capsys, *argv, "--entry", *entry)
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("method", sorted(SEARCH_RUNS))
@pytest.mark.parametrize("entry", sorted(PINNED_SEARCH_DIGESTS))
def test_pinned_search_digests(capsys, entry, method):
    argv, want_code = SEARCH_RUNS[method]
    code, out, _ = run(capsys, *argv, "--entry", *entry)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SEARCH_DIGESTS[entry][method]

