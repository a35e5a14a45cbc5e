import json
import math
import re
import time
from pathlib import Path

import pytest

from hyperwave import descent, grids
from hyperwave.cli import _COMMANDS, _OPTIONS, GATES, _bound_text, build_parser, main
from hyperwave.output import write_json

from conftest import traced_peak

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return main(argv)


class TestConfigGates:
    def test_even_dimension_exit_2(self, tmp_path):
        assert run(["identities", "--dims", "6", "--out", str(tmp_path / "x")]) == 2
        assert run(["freewave", "--d", "6", "--out", str(tmp_path / "x")]) == 2

    def test_small_radius_exit_2(self, tmp_path):
        assert run(["identities", "--R", "0.3", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["identities", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_wrong_type_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "many"}))
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # `--d` is not taken as an abbreviation of `--dims`
            ["identities", "--d", "7"],
            ["freewave", "--dims", "7"],
            ["spectrum", "--eps", "0.1"],
            ["blowup", "--seed", "1"],
            ["norms", "--amp", "nan"],
        ],
    )
    def test_unread_flag_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("identities", {"N": 4}),
            ("freewave", {"seed": 1}),
            ("spectrum", {"eps": -3}),
            ("blowup", {"dims": "7"}),
            ("norms", {"amp": 2}),
        ],
    )
    def test_unread_config_key_exit_2(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize(
        "command, cfg",
        [
            *((name, {"R": True}) for name in _COMMANDS),
            ("freewave", {"d": True}),
            ("spectrum", {"N": False}),
            ("blowup", {"d": True}),
            ("norms", {"seed": True}),
        ],
    )
    def test_bool_for_number_key_exit_2(self, tmp_path, capsys, command, cfg):
        # bool is a subclass of int, so JSON true/false must be refused by name
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        [key] = cfg
        assert err.startswith(f"configuration error: config key {key!r} must be ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("x*"))

    def test_readme_lists_each_command_keys(self):
        rows = re.findall(r"^\| (\w+) +\| `([^`]*)` +\|$", README.read_text(), re.MULTILINE)
        assert {name: tuple(keys.split(", ")) for name, keys in rows} == {
            name: keys for name, (_, keys, _) in _COMMANDS.items()
        }

    def test_readme_lists_each_option_bound(self):
        # | `key` | type | default | `bound` |
        row = r"^\| `(\w+)` +\| \w+ +\| [^|]+\| `([^`]*)` +\|$"
        rows = re.findall(row, README.read_text(), re.MULTILINE)
        assert dict(rows) == {key: _bound_text(key) for key in _OPTIONS if _bound_text(key)}

    def test_bad_dims_exit_2(self, tmp_path):
        assert run(["identities", "--dims", "3,four", "--out", str(tmp_path / "x")]) == 2

    def test_non_finite_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"amp": NaN}')
        assert run(["blowup", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "amp must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_tiny_step_exits_2_at_once(self, tmp_path, capsys):
        # 5 ceil(6/dt) + 32 ceil(0.25/dt) Lawson steps never end at dt = 1e-300
        start = time.perf_counter()
        assert run(["blowup", "--dt", "1e-300", "--out", str(tmp_path / "x")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == "configuration error: dt must be finite, >= 1e-05, got 1e-300\n"
        assert not list(tmp_path.iterdir())

    def test_blowup_needs_d7(self, tmp_path):
        assert run(["blowup", "--d", "5", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--N", "4"],
            ["--d", "7", "--N", "16"],
            ["--s-end", "-1"],
            ["--s-end", "0"],
            # the FD oracle's stencils reach past eta = R: its last two of
            # 800 cells must lie above 1/2, so R >= 0.5 m / (m - 1.5) = 0.50094
            ["--R", "0.5"],
            ["--R", "0.5009"],
        ],
    )
    def test_freewave_bad_config_exit_2(self, tmp_path, capsys, flags):
        assert run(["freewave", *flags, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_freewave_runs_just_above_the_R_floor(self, tmp_path):
        # 0.501 clears the floor 0.50094 of the FD oracle's 800 cells
        out = tmp_path / "fw"
        assert run(["freewave", "--R", "0.501", "--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["cross_check_error"] < 1e-4

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
            ["blowup", "--amp", "-inf"],
            ["spectrum", "--R", "nan"],
            ["spectrum", "--R", "inf"],
            ["freewave", "--s-end", "inf"],
            ["blowup", "--eps", "inf"],
            ["blowup", "--dt", "inf"],
            # the reference profile blows up at t = 1: no lattice marches to t = eps >= 1
            ["blowup", "--eps", "1"],
            ["blowup", "--eps", "1e300"],
            # `norms` checks the weighted norms from d = 3 on; a smaller
            # dimension is refused, not skipped with a passing exit
            ["norms", "--dims", "1"],
            ["norms", "--dims", "7,1"],
            # numpy's generators take no negative seed
            ["norms", "--seed", "-1"],
            # the potential overflows: assemble_L refuses the NaN mode residual
            ["spectrum", "--R", "1e20"],
            # the norm oracle's rule has more nodes than an array holds
            ["norms", "--R", "1e300"],
            # an output prefix under a regular file, refused before the run
            *([name, "--out", "FILE/x"] for name in _COMMANDS),
            ["blowup", "--out", "FILE/sub/x"],
            ["identities", "--out", "/dev/null/x"],
            # the time axis has more samples than an array holds
            ["freewave", "--s-end", "1e300"],
            # CONFIG gives R as an int of 401 digits, which no float holds
            ["freewave", "--config", "CONFIG"],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_value_exit_2(self, tmp_path, capsys, argv):
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        config = tmp_path / "CONFIG"
        config.write_text('{"R": 1' + "0" * 400 + "}")
        # a later --out in argv wins over this one
        out = [a.replace("FILE", str(blocker)).replace("CONFIG", str(config)) for a in argv[1:]]
        assert run([argv[0], "--out", str(tmp_path / "x"), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [config, blocker]
        if "--out" in argv:
            parent = blocker if "FILE/" in argv[-1] else "/dev/null"
            assert f": {parent} is not a writable directory" in err

    def test_negative_exponent_float_is_a_value(self):
        parser = build_parser()
        spaced = parser.parse_args(["blowup", "--amp", "-1e-3"])
        assert vars(spaced) == vars(parser.parse_args(["blowup", "--amp=-1e-3"]))
        assert spaced.amp == -1e-3

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

    @pytest.mark.parametrize(
        "command, cfg, flags",
        [
            ("freewave", {"R": 2, "s_end": 5}, ["--R", "2", "--s-end", "5"]),
            ("blowup", {"N": 48, "amp": 0}, ["--N", "48", "--amp", "0"]),
        ],
    )
    def test_config_int_for_float_key_writes_the_flag_bytes(self, tmp_path, command, cfg, flags):
        # an int for a float key is stored as the float that its flag gives
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run([command, "--config", str(path), "--out", str(tmp_path / "cfg")]) == 0
        assert run([command, *flags, "--out", str(tmp_path / "flags")]) == 0
        for suffix in (".csv", ".json"):
            cfg_bytes = (tmp_path / f"cfg{suffix}").read_bytes()
            assert cfg_bytes == (tmp_path / f"flags{suffix}").read_bytes()

    def test_config_supplies_d_N_R(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 9, "N": 56, "R": 1.5}))
        out = tmp_path / "spec"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["parameters"] == {"d": 9, "N": 56, "R": 1.5}

    def test_explicit_default_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": 80}))
        out = tmp_path / "spec"
        assert run(["spectrum", "--config", str(cfg), "--N", "64", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["parameters"] == {"d": 7, "N": 64, "R": 2.0}

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

    def test_identities_repeated_dimension_checked_once(self, tmp_path, capsys):
        # d = 1 is always checked, so a requested d = 1 adds no rows: 3
        # identities at d = 1, 4 at d = 3, the Christoffel and parity checks
        out = tmp_path / "ident"
        assert run(["identities", "--dims", "1,3,3", "--out", str(out)]) == 0
        assert "identities: 9 checks," in capsys.readouterr().out
        lines = out.with_suffix(".csv").read_text().splitlines()[1:]
        assert len(lines) == len({tuple(line.split(",")[:2]) for line in lines}) == 9

    @pytest.mark.filterwarnings("error")
    def test_identities_nan_residual_is_a_breach(self, tmp_path, capsys):
        # at R = 1e300 the coefficients overflow: every identity residual and
        # the parity defect are NaN, and no numpy warning reaches stderr
        out = tmp_path / "ident"
        assert run(["identities", "--dims", "3", "--R", "1e300", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "identities: check identity failed: nan against < 1e-10\n"
            "identities: check parity_table failed: nan against < 1e-12\n"
        )
        assert "worst identity residual nan" in captured.out
        checks = json.loads(out.with_suffix(".json").read_text())["checks"]
        # NaN is written as null
        assert [(c["name"], c["passed"]) for c in checks if c["value"] is None] == [
            ("identity", False),
            ("parity_table", False),
        ]

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
        # this tree's values; bench/references.json holds them to its REF_TOL
        assert doc["exponent_fit"] == pytest.approx(0.09034268757701863, rel=1e-8)
        # the FD oracle's one third-order march on 800 cells at FD_CFL = 1.5
        assert doc["cross_check_error"] == pytest.approx(2.5276013414841415e-08, abs=1e-13)
        assert a.with_suffix(".csv").read_text().splitlines()[0] == "s,norm"
        for suffix in (".csv", ".json"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()

    def test_freewave_builds_every_kernel_in_one_pass(self, tmp_path, monkeypatch):
        # one pass over the 64 nodes builds the recomposition and the d = 5
        # and d = 7 inverses on one quadrature rule; each of the 11 S_1
        # steps then reads its characteristic feet once
        points, rules = [], []
        interp, leggauss = grids.Grid.interp_matrix, grids.leggauss
        counted = lambda grid, pts: points.append(pts) or interp(grid, pts)
        monkeypatch.setattr(grids.Grid, "interp_matrix", counted)
        monkeypatch.setattr(grids, "leggauss", lambda n: rules.append(n) or leggauss(n))
        argv = ["freewave", "--d", "7", "--N", "64", "--s-end", "5", "--out", str(tmp_path / "x")]
        assert run(argv) == 0
        assert (len(points), rules) == (64 + 11, [64 + 16])

    def test_freewave_marches_the_fd_oracle_once(self, tmp_path, monkeypatch):
        # the cross-check's one march on 800 cells, and no other FD march
        cells = []
        fd_run = descent._fd_run

        def counting(d, f1, f2, s_end, R, m):
            cells.append(m)
            return fd_run(d, f1, f2, s_end, R, m)

        monkeypatch.setattr(descent, "_fd_run", counting)
        argv = ["freewave", "--d", "7", "--N", "64", "--s-end", "5"]
        assert run([*argv, "--out", str(tmp_path / "fw")]) == 0
        assert cells == [800]

    def test_freewave_refuses_R_before_the_norm_series(self, tmp_path, capsys, monkeypatch):
        # the FD oracle's stencil check runs first: no free evolution runs
        # before `--R 0.5` exits 2
        import hyperwave.cli

        def never(*args):
            raise AssertionError("evolve_free_wave ran before the FD oracle refused R")

        monkeypatch.setattr(hyperwave.cli, "evolve_free_wave", never)
        assert run(["freewave", "--R", "0.5", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "configuration error: freewave: the FD stencil reaches past the last cell at R=0.5"
        )
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_freewave_writes_a_row_per_time(self, tmp_path):
        # s_end below one FD step: the six times round to steps 0 and 1, and
        # each still gets its row; the exponent fitted over s <= 1e-4 breaches
        # the bound, so the run exits 1 after writing its artifacts
        out = tmp_path / "fw"
        argv = ["freewave", "--d", "7", "--N", "64", "--s-end", "1e-4", "--out", str(out)]
        assert run(argv) == 1
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "s,norm"
        assert len(lines) == 1 + 6

    @pytest.mark.filterwarnings("error")
    def test_freewave_with_every_norm_zero_writes_null(self, tmp_path, capsys):
        # at R = 100 no node of N = 24 lies inside the bump, every norm is 0
        # and the fitted exponent is NaN, which JSON has no literal for
        out = tmp_path / "fw"
        assert run(["freewave", "--d", "7", "--N", "24", "--R", "100", "--out", str(out)]) == 1

        def refuse(literal):
            raise AssertionError(f"{literal} is not JSON")

        doc = json.loads(out.with_suffix(".json").read_text(), parse_constant=refuse)
        assert doc["exponent_fit"] is None and doc["cross_check_error"] > 0.0
        # one line says why, no log of 0 is taken, and each failed check is named
        assert capsys.readouterr().err == (
            "freewave: a norm is 0, the data vanish on the grid: no fit\n"
            "freewave: check exponent_fit failed: nan against <= 0.55\n"
            f"freewave: check cross_check_error failed: {doc['cross_check_error']!r} "
            "against < 0.0001\n"
        )

    def test_write_json_writes_null_for_non_finite_floats(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(str(path), {"a": [float("inf"), -float("inf")], "b": float("nan"), "c": 0.1})
        assert json.loads(path.read_text()) == {"a": [None, None], "b": None, "c": 0.1}

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
        # the README command's certified outputs (ROADMAP "Measured now")
        assert doc["T_star"] == pytest.approx(0.99999998641799659, rel=1e-9)
        assert doc["omega0_fit"] == pytest.approx(0.58570981720474957, rel=1e-9)
        # the connection function's gap (ROADMAP item 4)
        assert doc["gap"] == pytest.approx(0.588904823837, rel=1e-10)
        assert doc["floor_limited"] is False
        assert set(doc) == {
            "T_star", "omega0_fit", "fit_residual", "floor_limited", "gap", "k", "parameters",
            "checks",
        }
        assert doc["k"] == 2
        for suffix in (".csv", ".json"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()

    def test_blowup_takes_one_matrix_exponential_per_step_size(self, tmp_path, monkeypatch):
        # exp(hL) is the square of the cached exp(hL/2): the README run's
        # four step sizes take four `_expm` calls, not eight
        from hyperwave import linstab

        calls = []
        expm = linstab._expm

        def counting(A):
            calls.append(A.shape)
            return expm(A)

        monkeypatch.setattr(linstab, "_expm", counting)
        argv = ["blowup", "--d", "7", "--amp", "1e-3", "--eps", "0.05"]
        assert run([*argv, "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == 4

    def test_blowup_memory_peak(self, tmp_path):
        # the README command's traced peak is the Cauchy fit's w_r solve: the
        # lattice of w, the Krylov vectors, the next one and the operator's
        # work buffer (27.2 MB; 32.1 MB with the lattice holding w_t and w_r
        # and the solver holding b and its own scratch vector)
        argv = ["blowup", "--d", "7", "--amp", "1e-3", "--eps", "0.05", "--out", str(tmp_path / "b")]
        status, peak = traced_peak(lambda: run(argv))
        assert status == 0
        assert peak < 28e6

    @pytest.mark.parametrize("extra", [["--amp", "1e-20"], ["--eps", "0.005"]])
    def test_blowup_without_rate_fails_the_gate(self, tmp_path, capsys, extra):
        # the norms sink to the floor: a vanishing amplitude, or a support so
        # narrow that its light cone misses every node of the hyperboloid
        out = tmp_path / "b"
        assert run(["blowup", "--d", "7", *extra, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "omega0 none (trajectory at floor)" in captured.out
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["omega0_fit"] is None
        assert doc["floor_limited"] is True

    def test_blowup_unstable_final_run_exits_1(self, tmp_path, capsys):
        # at R = 0.5 the run at T* trips the explosion guard after one record,
        # which leaves too few samples for a rate fit
        out = tmp_path / "b"
        assert run(["blowup", "--d", "7", "--R", "0.5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("blowup: the final run at T* = ")
        assert err.endswith(" tripped the explosion guard\n") and len(err.splitlines()) == 1
        doc = json.loads(out.with_suffix(".json").read_text())
        assert set(doc) == {"error", "parameters"}
        # the resolved options, all but out
        assert doc["parameters"] == {
            "d": 7, "R": 0.5, "N": 64, "eps": 0.05, "amp": 1e-3, "dt": 0.02
        }
        assert not out.with_suffix(".csv").exists()

    def test_blowup_unconverged_spline_fit_exits_1(self, tmp_path, capsys, monkeypatch):
        from hyperwave import nonlinear

        # the fit's GMRES needs about a dozen steps; a cycle of two misses
        monkeypatch.setattr(nonlinear, "GMRES_STEPS", 2)
        out = tmp_path / "b"
        assert run(["blowup", "--d", "7", "--N", "48", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("blowup: Cauchy spline fit: GMRES residual")
        assert len(err.splitlines()) == 1
        error = json.loads(out.with_suffix(".json").read_text())["error"]
        assert error.startswith("Cauchy spline fit: GMRES residual")

    @pytest.mark.filterwarnings("error")
    def test_blowup_overflowing_amplitude_trips_the_cauchy_guard(self, tmp_path, capsys):
        # the deviation overflows to NaN, which the guard refuses, and no
        # numpy warning reaches stderr
        out = tmp_path / "b"
        assert run(["blowup", "--amp", "1e300", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("blowup: local existence window exceeded: deviation grew beyond ")
        assert err.count("\n") == 1
        assert json.loads(out.with_suffix(".json").read_text())["error"] == err[8:-1]

    @pytest.mark.filterwarnings("error")
    def test_norms_with_vanishing_test_functions_fails_drift(self, tmp_path, capsys):
        # at R = 1e4 the seeded bumps vanish on every node: each ratio is NaN,
        # the drift check fails by name and the CSV is still written
        out = tmp_path / "n"
        assert run(["norms", "--dims", "3", "--R", "1e4", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "norms: check drift failed: nan against < 0.1\n"
        rows = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()[1:4]]
        assert [row[2:] for row in rows] == [["nan"] * 3] * 3
        checks = json.loads(out.with_suffix(".json").read_text())["checks"]
        assert [(c["name"], c["value"]) for c in checks if not c["passed"]] == [("drift", None)]

    def test_norms_builds_two_grids(self, tmp_path, monkeypatch):
        # one grid at N and one at 2N serve every (d, k) row and the Hardy
        # and integral-operator rows
        from hyperwave import cli

        sizes = []
        make_grid = cli.make_grid
        monkeypatch.setattr(cli, "make_grid", lambda R, N: sizes.append(N) or make_grid(R, N))
        assert run(["norms", "--dims", "3,5,7", "--out", str(tmp_path / "n")]) == 0
        assert sizes == [64, 128]

    def test_norms_deterministic_with_seed(self, tmp_path):
        a = tmp_path / "na"
        b = tmp_path / "nb"
        assert run(["norms", "--dims", "3", "--N", "24", "--seed", "7", "--out", str(a)]) == 0
        assert run(["norms", "--dims", "3", "--N", "24", "--seed", "7", "--out", str(b)]) == 0
        for suffix in (".csv", ".json"):
            assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()

    def test_norms_repeated_dimension_checked_once(self, tmp_path):
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert run(["norms", "--dims", "3", "--N", "24", "--out", str(once)]) == 0
        assert run(["norms", "--dims", "3,3", "--N", "24", "--out", str(twice)]) == 0
        assert once.with_suffix(".csv").read_bytes() == twice.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize("d", [9, 11])
    def test_spectrum_scan_ssc_beyond_d7(self, tmp_path, d):
        # the connection function cancels the pole at 1 that hides the
        # eigenvalue from the bare determinant at d >= 9
        out = tmp_path / "spec"
        assert run(["spectrum", "--d", str(d), "--N", "96", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["ssc_count"] == len(doc["ssc_roots"]) == 2
        assert abs(complex(doc["ssc_roots"][0]["re"], doc["ssc_roots"][0]["im"]) - 1.0) < 1e-6
        assert doc["gap"] == -doc["ssc_roots"][1]["re"] > 0.0

    @pytest.mark.parametrize("d, N, gap", [(21, 128, 0.659819705908), (31, 96, 0.662301829144)])
    def test_spectrum_takes_the_gap_from_the_connection_function(self, tmp_path, d, N, gap):
        # collocation loses the gap eigenvalue's digits here (and 1 drifts by
        # 1.1e-6 at d = 31); the verdict holds on the connection function's
        # two zeros, and the projector's idempotency gate alone sets exit 1
        out = tmp_path / "spec"
        assert run(["spectrum", "--d", str(d), "--N", str(N), "--out", str(out)]) == 1
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["gap"] == pytest.approx(gap, abs=1e-10)
        assert doc["mode_stable"] is True and doc["ssc_count"] == 2
        assert doc["gap_collocation_error"] > 1e-4
        assert doc["projection"]["idempotency_defect"] >= 1e-8 and doc["mode_angle"] < 1e-5
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["idempotency_defect"]

    @pytest.mark.parametrize("result", [(2, [1.0]), (3, [1.0, -0.588904823837])])
    def test_spectrum_gate_rejects_count_mismatch(self, tmp_path, monkeypatch, result):
        # (2, [1.0]) a second zero in the window that the scan did not locate;
        # (3, [1.0, -0.589]) a third one
        from hyperwave import linstab

        monkeypatch.setattr(linstab, "ssc_scan_roots", lambda params: result)
        out = tmp_path / "spec"
        assert run(["spectrum", "--d", "7", "--N", "48", "--out", str(out)]) == 1
        doc = json.loads(out.with_suffix(".json").read_text())
        assert (doc["ssc_count"], len(doc["ssc_roots"])) == (result[0], len(result[1]))
        assert doc["mode_stable"] is False

    def test_spectrum_under_resolved_contour_exits_1(self, tmp_path, capsys, monkeypatch):
        from hyperwave import linstab

        monkeypatch.setattr(linstab, "SSC_MAX_PHASE_STEP", 1e-3)
        out = tmp_path / "spec"
        assert run(["spectrum", "--d", "7", "--N", "48", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("spectrum: similarity-coordinate scan failed: contour under-resolved")
        assert len(err.splitlines()) == 1
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["error"] == err[len("spectrum: ") :].rstrip("\n")
        assert doc["parameters"] == {"d": 7, "R": 2.0, "N": 48}

    def test_blowup_scan_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a scan that cannot run stops blowup before it shoots
        from hyperwave import cli, linstab

        monkeypatch.setattr(linstab, "SSC_SERIES_ORDER", 30)
        monkeypatch.setattr(cli, "adjust_blowup_time", None)
        out = tmp_path / "x"
        assert run(["blowup", "--d", "7", "--N", "48", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        message = "similarity-coordinate scan failed: Frobenius series not converged at radius 0.5"
        assert captured.err.startswith(f"blowup: {message}") and captured.err.count("\n") == 1
        assert json.loads(out.with_suffix(".json").read_text())["error"] == captured.err[8:-1]
        assert captured.out == "" and not out.with_suffix(".csv").exists()

    def test_norms_ratios_match_adaptive_quadrature(self, tmp_path):
        # ratio_N of the README command as scipy's adaptive `quad` on
        # finite-difference derivatives gave it (accurate to about 1e-8): the
        # closed-form derivatives and the Gauss-Legendre rule must agree
        out = tmp_path / "norms"
        assert run(["norms", "--dims", "3,5,7", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.with_suffix(".csv").read_text().splitlines()[1:10]]
        assert {(int(d), int(k)): float(r) for d, k, r, *_ in rows} == pytest.approx(
            {
                (3, 0): 2.5066282746309998,
                (3, 1): 2.4853550213772952,
                (3, 2): 2.4607407947399671,
                (5, 0): 3.6275987284684352,
                (5, 1): 4.6053315671416302,
                (5, 2): 4.6209500611870586,
                (7, 0): 4.0665318019363754,
                (7, 1): 5.643374646273613,
                (7, 2): 6.7926848398290529,
            },
            rel=1e-7,
        )

    @pytest.mark.parametrize("command", ["spectrum", "blowup"])
    def test_missing_gap_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # a scan that counts and locates the eigenvalue 1 alone leaves no
        # gap; blowup stops before it shoots
        from hyperwave import cli, linstab

        monkeypatch.setattr(linstab, "ssc_scan_roots", lambda params: (1, [1.0]))
        monkeypatch.setattr(cli, "adjust_blowup_time", None)
        out = tmp_path / "x"
        assert run([command, "--d", "7", "--N", "48", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        message = (
            "the connection function locates no eigenvalue with Re < 0 in its window "
            "at d=7, N=48; the gap is undefined"
        )
        doc = json.loads(out.with_suffix(".json").read_text())
        if command == "spectrum":
            # a missing gap fails the mode_stable check
            assert captured.err == "spectrum: check mode_stable failed: False against == True\n"
            assert doc["gap"] is None and doc["mode_stable"] is False
            assert captured.out.endswith(", gap none\n")
        else:
            assert captured.err == f"{command}: {message}\n"
            assert doc["error"] == message
            assert captured.out == "" and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("command", ["spectrum", "blowup"])
    def test_second_unstable_zero_fails_mode_stable(self, tmp_path, capsys, monkeypatch, command):
        # a located zero at 0.3 besides 1: the gap stays the rightmost zero
        # with Re < 0, and both commands name the failed verdict
        from hyperwave import linstab

        roots = [1.0, 0.3, -0.5889048238369838]
        monkeypatch.setattr(linstab, "ssc_scan_roots", lambda params: (3, roots))
        out = tmp_path / "x"
        assert run([command, "--d", "7", "--N", "48", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"{command}: check mode_stable failed: False against == True"]
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["gap"] == 0.5889048238369838
        assert [c["name"] for c in doc["checks"][:2]] == ["mode_stable", "unstable_root_offset"]

    def test_one_gap_at_every_N_and_R_and_in_blowup(self, tmp_path):
        # the gap is the connection function's root, which no grid enters
        gaps = set()
        for i, (N, R) in enumerate(((48, 2), (96, 2), (128, 2), (64, 0.75))):
            out = tmp_path / f"spec{i}"
            assert run(["spectrum", "--N", str(N), "--R", str(R), "--out", str(out)]) == 0
            gaps.add(json.loads(out.with_suffix(".json").read_text())["gap"])
        out = tmp_path / "blowup"
        assert run(["blowup", "--N", "48", "--out", str(out)]) == 0
        gaps.add(json.loads(out.with_suffix(".json").read_text())["gap"])
        assert len(gaps) == 1 and gaps.pop() == pytest.approx(0.588904823837, rel=1e-10)

    def test_spectrum_document(self, tmp_path):
        out = tmp_path / "spec"
        assert run(["spectrum", "--d", "7", "--N", "64", "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["mode_stable"] is True
        assert {"re", "im", "stable"} <= set(doc["eigenvalues"][0])
        assert doc["gap"] > 0


# the cheapest runs that reach each gate's check and pass every check
_SPECTRUM_RUN, _BLOWUP_RUN = ["spectrum", "--N", "48"], ["blowup", "--N", "48"]
GATE_RUNS = {
    **dict.fromkeys(
        ("identity", "contracted_christoffel", "parity_table"), [["identities", "--dims", "3"]]
    ),
    **dict.fromkeys(
        ("exponent_fit", "cross_check_error"), [["freewave", "--d", "3", "--N", "16"]]
    ),
    "exponent_fit_d1": [["freewave", "--d", "1", "--N", "16"]],
    # blowup checks the spectrum ahead of its own gates
    **dict.fromkeys(("mode_stable", "unstable_root_offset"), [_SPECTRUM_RUN, _BLOWUP_RUN]),
    **dict.fromkeys(("idempotency_defect", "mode_angle"), [_SPECTRUM_RUN]),
    **dict.fromkeys(("T_star_offset", "omega0_fit", "omega0_gap_offset"), [_BLOWUP_RUN]),
    **dict.fromkeys(
        ("control_T_star", "control_floor_limited"), [["blowup", "--amp", "0", "--N", "48"]]
    ),
    **dict.fromkeys(("drift", "hardy", "integral_op_T"), [["norms", "--dims", "3", "--N", "24"]]),
}


@pytest.mark.parametrize("name", GATES)
def test_each_gate_fails_its_check_alone(tmp_path, capsys, monkeypatch, name):
    # a bound that no value meets: nothing equals a fresh object
    comparison, _ = GATES[name]
    bound = {"<": -math.inf, "<=": -math.inf, ">": math.inf, "==": object()}[comparison]
    monkeypatch.setitem(GATES, name, (comparison, bound))
    out = tmp_path / "x"
    for argv in GATE_RUNS[name]:
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{argv[0]}: check {name} failed: ")
        checks = json.loads(out.with_suffix(".json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == [name]


# values outside each kind of (comparison, bound) pair
OUTSIDE = {"<": lambda b: [b], ">": lambda b: [b], ">=": lambda b: [b - 1],
           "odd >=": lambda b: [b + 1, b - 2]}
BOUND_BREAKS = [
    (command, key, value)
    for command, (_, keys, _) in _COMMANDS.items()
    for key in keys
    for value in [
        *(v for comparison, b in _OPTIONS[key][3] for v in OUTSIDE[comparison](b)),
        *(["nan", "inf", "-inf"] if _OPTIONS[key][0] is float else []),
    ]
]


@pytest.mark.parametrize("command, key, value", BOUND_BREAKS)
def test_each_bound_refuses_a_value_outside_it(tmp_path, capsys, command, key, value):
    # a dims list is refused for any one dimension outside the bound
    flag = f"3,{value}" if key == "dims" else str(value)
    out = tmp_path / "x"
    assert run([command, "--" + key.replace("_", "-"), flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} must be {_bound_text(key)}, got ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", _COMMANDS)
def test_each_flag_help_states_its_bound(capsys, command):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for key in _COMMANDS[command][1]:
        if _bound_text(key):
            assert f" ({_bound_text(key)})" in text


# a cheap passing run of each command from a config that sets every option it
# reads to a value other than its default, and the JSON's other top-level keys
RECORD_RUNS = {
    "identities": ({"dims": "3,5", "R": 3}, set()),
    "freewave": ({"d": 5, "R": 1.5, "N": 16, "s_end": 2}, {"exponent_fit", "cross_check_error"}),
    "spectrum": (
        {"d": 9, "R": 3, "N": 48},
        {"window", "ssc_count", "ssc_roots", "eigenvalues", "gap", "gap_collocation_error",
         "mode_stable", "projection", "mode_angle"},
    ),
    "blowup": (
        {"d": 9, "R": 1.5, "N": 48, "eps": 0.1, "amp": 0, "dt": 0.04},
        {"T_star", "omega0_fit", "fit_residual", "floor_limited", "gap", "k"},
    ),
    "norms": ({"dims": "3", "R": 3, "N": 24, "seed": 7}, set()),
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_each_json_records_its_resolved_options(tmp_path, command):
    options, keys = RECORD_RUNS[command]
    assert {*options, "out"} == set(_COMMANDS[command][1])
    assert all(value != _OPTIONS[key][1] for key, value in options.items())
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**options, "out": str(tmp_path / "cfg")}))
    assert run([command, "--config", str(path)]) == 0
    flags = [a for key, value in options.items() for a in ("--" + key.replace("_", "-"), str(value))]
    assert run([command, *flags, "--out", str(tmp_path / "flags")]) == 0
    text = (tmp_path / "cfg.json").read_text()
    # out is not recorded, so both prefixes write the same bytes
    assert text == (tmp_path / "flags.json").read_text()
    doc = json.loads(text)
    assert set(doc) == {"parameters", "checks", *keys}
    # an int for a float key is recorded as the float it is stored as
    assert {key: (type(v), v) for key, v in doc["parameters"].items()} == {
        key: (_OPTIONS[key][0], _OPTIONS[key][0](value)) for key, value in options.items()
    }
