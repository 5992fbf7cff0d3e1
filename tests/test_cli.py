import argparse
import hashlib
import json
import math

import pytest

from curvcert.catalog import t1_sphere
from curvcert.certify import StartBudget, check_fatness, report_to_json
from curvcert.cli import build_parser, main
from curvcert.triple import load_triple, make_triple, save_triple


SQ2 = math.sqrt(2.0)


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

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '{"schema": "curvcert-triple/1", '
                                      '"field": "real", "n": 2, "bases": [1, 2]}'])
    def test_document_that_is_not_an_object_is_error(self, capsys, tmp_path, text):
        path = tmp_path / "triple.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--file", str(path), "--method", "part3")
        assert code == 3
        assert out == ""
        assert "is a JSON object, not" in err

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
    ])
    def test_check_rejects_flags_its_method_ignores(self, capsys, method, flag):
        code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", method, *flag)
        assert code == 3 and out == ""
        assert f"{flag[0]} does not apply to check --method {method}" in err


def strict_json(text):
    """Parse text, refusing the non-standard constants Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestDegenerateReports:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # t1_sphere(3) with h = g (p = 0, empty search domains) and with k = h (dim m = 0)
        t = t1_sphere(3)
        g, h = t.triple.g_basis.elements(), t.triple.h_basis.elements()
        k = t.triple.k_basis.elements()
        out = {}
        for name, (hs, ks) in {"p0": (g, k), "m0": (h, h)}.items():
            out[name] = str(tmp_path_factory.mktemp("triples") / f"{name}.json")
            save_triple(make_triple(g, hs, ks, label=name, base_point=t.base_point_A), out[name])
        return out

    @pytest.mark.parametrize("name,argv,code", [
        ("p0", ["check", "--method", "fat", "--starts", "4"], 0),
        # vacuous, but A in h is not in p = 0
        ("p0", ["check", "--method", "part2", "--starts", "4"], 2),
        ("p0", ["scan", "--s-values", "0,0.2", "--starts", "4"], 0),
        ("m0", ["check", "--method", "part3"], 0),
    ])
    def test_infinite_score_is_written_as_null(self, capsys, files, name, argv, code):
        got, out, _ = run(capsys, *argv, "--file", files[name])
        assert got == code
        docs = strict_json(out)
        for doc in docs if isinstance(docs, list) else [docs]:
            assert doc["schema"] == "curvcert-report/2"
            assert doc["score"] is None

    def test_library_report_is_strict_json(self, files):
        report = check_fatness(load_triple(files["p0"]), StartBudget(starts=4))
        assert report.score == math.inf  # the report object keeps inf
        assert strict_json(report_to_json(report))["score"] is None


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
        cfg.write_text("format = json\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["config"]["format"] == "json"

    def test_check_rejects_s_values_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s_values = 0.1, 0.2\n")
        code, out, err = run(capsys, "check", "--entry", "t1s3_product", "--method", "part3",
                             "--config", str(cfg))
        assert code == 3 and out == ""
        assert "scan only" in err

    @pytest.mark.parametrize("argv,text", [(["check", "--method", "fat"], "tol = inf"),
                                           (["scan"], "s_values = 0, inf"),
                                           (["scan"], "s_values = 0.1\nformat = xml")])
    def test_settings_that_cannot_run_exit_3(self, capsys, tmp_path, argv, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        code, out, _ = run(capsys, *argv, "--entry", "t1s3_product", "--starts", "4",
                           "--config", str(cfg))
        assert code == 3 and out == ""


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


# sha256 of the stdout of `export` and `check --method part3`, taken before the
# structural layer moved to batched brackets; bytes must not change.  The part3
# digests were re-taken for the report schema curvcert-report/2, which dropped
# the no-op `t` and `workers` keys from the config block.
PINNED_DIGESTS = {
    ("t1s3_product",): (
        "0cf3c78e15f9bea425f5d1a752a36e8f97773a7792a1d39b150f48f7802106ef",
        "7fe2600819776952ec9dd2ceddcbf037911c7b51940efa2f1e2421b86f27ec20",
    ),
    ("t1_sphere", "--n", "4"): (
        "033d5cdd7846b93f4a371aa6ce61aeeb567fb711462544249a5e0c98e7bd0e74",
        "e34c21a41f2dce8351589a8a107358b6b96ce44d01c0d304fe22bd452cc9ed5d",
    ),
    ("sp_example", "--n", "3"): (
        "20d6270465e012560ce89bd3894ca712f3315b361485cfe51ee45e90b0402a5c",
        "4600b42170cfc14fb3b46a10cec5e24160d5b9236171cb5d4e3a74f45d3c5fcf",
    ),
    # one pin per family and field, taken before the catalog spans were built as
    # generator stacks with closed-form orthonormalization of disjoint rows
    ("t1_projective", "--field", "C", "--n", "2"): (
        "54a8c33351115105bc72043975a5555b66706dad16747546271806c94ede633a",
        "f7958e6473a09e90aa35312822846fc57ee64bf63c6b4d4a92fe4bd69699802c",
    ),
    ("t1_projective", "--field", "H", "--n", "3"): (
        "a74c0820a1c7f914b9270f290031aefd2fc118563caafb8347849e24096212d2",
        "e87105df3b8ba465b513e5d8df7a82babccce1106493da425e0a405f8531e43c",
    ),
    ("pt_projective", "--field", "R", "--n", "2"): (
        "85aa73a80eac13b16744626be10b5e7d3b036482704854ca180b26e1dd8dd3a2",
        "c782870f9f9dd17b67163d98fcc83f2c74395ac5695bc4bd8593579acf6f00a8",
    ),
    ("pt_projective", "--field", "C", "--n", "2"): (
        "86140a172129930d52fa19252179f488e8ba8043d5797b23a2239066526f65d5",
        "a55d46d006e6bb1b1f9b0bb56eb0dc12c7ed82f703c232c5f3eef8879e5c097f",
    ),
    ("pt_projective", "--field", "H", "--n", "2"): (
        "ee2d748c19b3c5522e0decd72306f87d09a14f8418ed7804dca8fdb4eb259154",
        "11169477898813db3fec953d77eb085ff9736d0392fa0d8b4f65ada22db172fc",
    ),
    ("m_kl", "--n", "2", "--k", "1", "--l", "1"): (
        "d7d71be702bf50bcbeaa6fc0cfbd1db5fbf741340cae4c828d40e4142fd1d871",
        "6015ef44255f4d00f5a5fd31bf4f70138aeb70bad77b648aa3da29f5d1d47997",
    ),
    ("m_kl", "--n", "2", "--k", "0", "--l", "1"): (
        "91aabf31bba83e4fd4150af77b188f3f9cd7252fbee61dfa3e2e50fa7617aa00",
        "61e24615c0581cdc981823830059f6539161c89eca13025ac5f02e2f64f299bb",
    ),
    ("t1_sphere", "--n", "10"): (
        "dc5b1fc00022d6510334f8114528d8ebbf78919add34c5d40f878df7c5615870",
        "1044928af226a117f1d8577bf77332d9b80523596fd17caf5e32c260d9940d5e",
    ),
    ("sp_example", "--n", "8"): (
        "dbe9b4dd36a643701d7c2cb91b44cce57e4a363b690a0b08fd0354a5f7d61874",
        "ae11ee4991184e129eae599efd2245645b10d3d12be67d040320c88bb273eced",
    ),
}
# part3 exit codes other than 0 (CERTIFIED): k = 0 lies outside the certified family
PINNED_PART3_CODES = {("m_kl", "--n", "2", "--k", "0", "--l", "1"): 1}

# sha256 of the stdout of the three searches, taken before every search tensor
# went through the all-pairs bracket kernel; bytes must not change.  Fat and
# the scan refute (a scan refutes at s = 0), part2 certifies.
SEARCH_RUNS = {
    "fat": (["check", "--method", "fat", "--starts", "16"], 1),
    "part2": (["check", "--method", "part2", "--starts", "8"], 0),
    "scan": (["scan", "--s-values", "0,0.05,0.1,0.2,0.4,0.8", "--starts", "4"], 1),
}
PINNED_SEARCH_DIGESTS = {
    ("t1_sphere", "--n", "3"): {
        "fat": "cac6bb56a741b4db7b7882d30d71effc3a914c09c9f4135dbd0847cf056eaf41",
        "part2": "3c530f957b92f0b39eb274df0444a6144d12d93ab3046cdaf876c5a06e1edc96",
        "scan": "0c45084b1821d63497d6e13a8949ac5f559df42ecce309cf6a80d5dfb957ece4",
    },
    ("m_kl", "--n", "2", "--k", "1", "--l", "1"): {
        "fat": "5d8985ed27306ef2159c866ef1376ec8631eed701111d8deb7f90c2567437358",
        "part2": "76db46406cf36c37aba9cf73fec85344a22539a1b152499422ab622c0ec35c5f",
        "scan": "c4d07c225e809091fe0132260111b900e1753f05b6b90b311e684b0aee8454f9",
    },
    ("sp_example", "--n", "2"): {
        "fat": "44f241fdc67efdde8aeb9e304ef6fb21fa479a8f761d174711a0f657b2d607cf",
        "part2": "bd805fa3bea5df56591eecf8b44b9d27dbf48d22e05116ddbcec07b792a55baa",
        "scan": "0976673beb5b704fc7d95698527e25891e38d62057f0891de7aefa9ee11681e8",
    },
}


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

