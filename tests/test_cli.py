import hashlib
import json
import math

import pytest

from curvcert.cli import main


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

    @pytest.mark.parametrize("argv", [["check", "--method", "part3"], ["check", "--method", "part2"],
                                      ["scan", "--s-values", "0.1"]])
    def test_base_point_from_another_algebra_is_error(self, capsys, argv):
        # a complex 2x2 A on the quaternion triple t1s3_product
        v = 1.0 / SQ2
        a = json.dumps({"field": "complex", "n": 2, "matrix": [0, v, 0, 0, 0, 0, 0, -v]})
        code, _, err = run(capsys, *argv, "--entry", "t1s3_product", "--starts", "4", "--A", a)
        assert code == 3
        assert "mismatched operands: quaternion(2) vs complex(2)" in err

    def test_workers_flag_is_accepted_and_echoed_only(self, capsys):
        argv = ["check", "--entry", "t1s3_product", "--method", "fat", "--starts", "8"]
        _, one, _ = run(capsys, *argv)
        code, four, _ = run(capsys, *argv, "--workers", "4")
        assert code == 1
        one, four = json.loads(one), json.loads(four)
        assert four["config"].pop("workers") == 4
        assert one["config"].pop("workers") == 1
        assert one == four


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
# structural layer moved to batched brackets; bytes must not change.
PINNED_DIGESTS = {
    ("t1s3_product",): (
        "0cf3c78e15f9bea425f5d1a752a36e8f97773a7792a1d39b150f48f7802106ef",
        "ca0fdf854a1348364c85c0f3f01a3beb5a53de6069f6c7c0f02cf57ebf7c3632",
    ),
    ("t1_sphere", "--n", "4"): (
        "033d5cdd7846b93f4a371aa6ce61aeeb567fb711462544249a5e0c98e7bd0e74",
        "ec073a980fcb88b1ffeed6c12345957faed760afe262562afe7c89d9a06a2a54",
    ),
    ("sp_example", "--n", "3"): (
        "20d6270465e012560ce89bd3894ca712f3315b361485cfe51ee45e90b0402a5c",
        "06263904c3d8a334d4e1e2929a16d08cef8226e73b5ae6ab3113b6eed7acc221",
    ),
}


@pytest.mark.parametrize("entry", sorted(PINNED_DIGESTS))
def test_pinned_output_digests(capsys, entry):
    export_sha, part3_sha = PINNED_DIGESTS[entry]
    for argv, want in ((["export"], export_sha), (["check", "--method", "part3"], part3_sha)):
        code, out, _ = run(capsys, *argv, "--entry", *entry)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want
