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
        code, _, _ = run(capsys, "check", "--entry", "nope", "--method", "fat")
        assert code == 3

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
}


@pytest.mark.parametrize("entry", sorted(PINNED_DIGESTS))
def test_pinned_output_digests(capsys, entry):
    export_sha, part3_sha = PINNED_DIGESTS[entry]
    for argv, want in ((["export"], export_sha), (["check", "--method", "part3"], part3_sha)):
        code, out, _ = run(capsys, *argv, "--entry", *entry)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want
