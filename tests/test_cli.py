import json

import pytest

from hyperwave.cli import main


def run(argv):
    return main(argv)


class TestConfigGates:
    def test_even_dimension_exit_2(self, tmp_path):
        assert run(["identities", "--d", "6", "--out", str(tmp_path / "x")]) == 2

    def test_small_radius_exit_2(self, tmp_path):
        assert run(["identities", "--R", "0.3", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["identities", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_wrong_type_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "many"}))
        assert run(["identities", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_bad_dims_exit_2(self, tmp_path):
        assert run(["identities", "--dims", "3,four", "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"amp": NaN}')
        assert run(["blowup", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "amp must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_blowup_needs_d7(self, tmp_path):
        assert run(["blowup", "--d", "5", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "flags", [["--N", "4"], ["--d", "7", "--N", "16"], ["--s-end", "-1"], ["--s-end", "0"]]
    )
    def test_freewave_bad_config_exit_2(self, tmp_path, capsys, flags):
        assert run(["freewave", *flags, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["blowup", "--dt", "-1"],
            ["blowup", "--dt", "0"],
            ["blowup", "--eps", "0"],
            ["blowup", "--N", "40"],
            ["spectrum", "--N", "40"],
            ["norms", "--N", "4"],
            # under-resolved: assemble_L's symmetry-mode residual check
            ["spectrum", "--d", "21", "--N", "48"],
            ["blowup", "--d", "21", "--N", "48"],
            # non-finite floats
            ["blowup", "--amp", "nan"],
            ["blowup", "--amp", "inf"],
            ["spectrum", "--R", "nan"],
            ["spectrum", "--R", "inf"],
            ["freewave", "--s-end", "inf"],
            ["blowup", "--eps", "inf"],
            ["blowup", "--dt", "inf"],
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": "3,5", "R": 1.5}))
        out = tmp_path / "ident"
        assert run(["identities", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out.with_suffix(".csv")).read_text()
        assert text.splitlines()[1].startswith("3,")
        # R only moves the sample points, so compare against explicit flags
        for R in ("1.5", "2.0"):
            assert run(["identities", "--dims", "3,5", "--R", R, "--out", str(tmp_path / R)]) == 0
        assert text == (tmp_path / "1.5.csv").read_text()
        assert text != (tmp_path / "2.0.csv").read_text()

    def test_config_supplies_d_N_R(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 9, "N": 56, "R": 1.5}))
        out = tmp_path / "spec"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert (doc["d"], doc["N"], doc["R"]) == (9, 56, 1.5)

    def test_explicit_default_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 80}))
        out = tmp_path / "spec"
        assert run(["spectrum", "--config", str(cfg), "--N", "64", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert (doc["d"], doc["N"], doc["R"]) == (7, 64, 2.0)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": "9"}))
        out = tmp_path / "ident"
        assert run(["identities", "--config", str(cfg), "--dims", "3", "--out", str(out)]) == 0
        rows = (out.with_suffix(".csv")).read_text().splitlines()[1:]
        assert rows[0].startswith("3,")


class TestCommands:
    def test_identities_all_dims(self, tmp_path):
        out = tmp_path / "ident"
        assert run(["identities", "--dims", "3,5,7,9,11", "--out", str(out)]) == 0
        lines = (out.with_suffix(".csv")).read_text().splitlines()
        assert lines[0] == "d,check,max_residual"
        assert len(lines) > 20

    def test_identities_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["identities", "--dims", "3,5", "--out", str(a)]) == 0
        assert run(["identities", "--dims", "3,5", "--out", str(b)]) == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    def test_freewave_one_dimensional(self, tmp_path):
        out = tmp_path / "fw"
        assert run(["freewave", "--d", "1", "--N", "48", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["exponent_fit"] <= -0.45
        csv = out.with_suffix(".csv").read_text().splitlines()
        assert csv[0] == "s,norm"

    def test_freewave_d7_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["freewave", "--d", "7", "--N", "64", "--s-end", "5"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--out", str(b)]) == 0
        doc = json.loads(a.with_suffix(".json").read_text())
        assert doc["cross_check_error"] < 1e-4
        assert a.with_suffix(".csv").read_text().splitlines()[0] == "s,norm,fd_norm"
        for suffix in (".csv", ".json"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()

    def test_blowup_d7_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["blowup", "--d", "7", "--amp", "1e-3", "--eps", "0.05"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--out", str(b)]) == 0
        doc = json.loads(a.with_suffix(".json").read_text())
        # reference values of the explicit-RK4 solver (ROADMAP baseline)
        assert doc["T_star"] == pytest.approx(0.99999998641799659, rel=1e-6)
        assert doc["omega0_fit"] == pytest.approx(0.58570981465673055, rel=1e-6)
        for suffix in (".csv", ".json"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()

    def test_norms_deterministic_with_seed(self, tmp_path):
        a = tmp_path / "na"
        b = tmp_path / "nb"
        assert run(["norms", "--dims", "3", "--N", "24", "--seed", "7", "--out", str(a)]) == 0
        assert run(["norms", "--dims", "3", "--N", "24", "--seed", "7", "--out", str(b)]) == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    def test_spectrum_document(self, tmp_path):
        out = tmp_path / "spec"
        assert run(["spectrum", "--d", "7", "--N", "64", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["mode_stable"] is True
        assert {"re", "im", "stable"} <= set(doc["eigenvalues"][0])
        assert doc["gap"] > 0
