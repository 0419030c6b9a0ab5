"""Command-line driver: config handling, report formats, exit codes."""

import csv
import dataclasses
import importlib.util
import json
import os
import pathlib
import re
import sys

import numpy as np
import pytest

from laplab.cli import (
    DEFAULTS,
    EXIT_CRITERIA,
    EXIT_HOLES,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
    validate_config,
    write_table,
)
from laplab import cli, perturb
from laplab.lattice import GridSpec


def read_table(path):
    with open(path, encoding="utf-8") as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    return comment, rows[0], rows[1:]


def read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(args, tmp_path, name):
    out = tmp_path / name
    out.mkdir(exist_ok=True)
    code = main(args + ["--out-dir", str(out)])
    return code, out


class TestConfig:
    def test_defaults_validate(self):
        assert validate_config(load_config(None)) == []

    def test_file_merge(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"m": 2, "grid": {"points_per_axis": 64}}))
        cfg = load_config(str(p))
        assert cfg["m"] == 2
        assert cfg["grid"]["points_per_axis"] == 64
        assert cfg["grid"]["half_width"] == DEFAULTS["grid"]["half_width"]

    def test_set_overrides(self):
        cfg = load_config(None, overrides=["m=2", "grid.half_width=8.0",
                                           "family.kinds=[\"ball\"]"])
        assert cfg["m"] == 2
        assert cfg["grid"]["half_width"] == 8.0
        assert cfg["family"]["kinds"] == ["ball"]

    def test_seed_override_wins(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"family": {"seed": 3}}))
        cfg = load_config(str(p), overrides=["family.seed=5"], seed=11)
        assert cfg["family"]["seed"] == 11

    def test_malformed_set(self):
        with pytest.raises(ConfigError, match="path=value"):
            load_config(None, overrides=["m:2"])

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))

    def test_validation_collects_field_messages(self):
        cfg = load_config(None, overrides=[
            "grid.points_per_axis=127", "sign=0", "delta=1.5",
            "epsilons=[0.1,-0.1]"])
        errors = validate_config(cfg)
        joined = "\n".join(errors)
        assert "grid.points_per_axis" in joined
        assert "sign" in joined
        assert "delta" in joined
        assert "epsilons[1]:" in joined

    def test_lambda_window_validation(self):
        # an unrelated bad field does not hide the window check
        cfg = load_config(None, overrides=["lambdas=[1.0,0.1]",
                                           "grid.points_per_axis=127"])
        assert any(e.startswith("lambdas[1]:") for e in validate_config(cfg))

    def test_radial_cutoff_validation(self):
        # the cutoff of this grid, 1.373, lies between sqrt(0.5) and sqrt(2);
        # at m = 2 both fourth roots lie below it
        cfg = load_config(None, overrides=["grid.points_per_axis=16",
                                           "grid.half_width=16",
                                           "lambdas=[0.5,2.0]"])
        errors = validate_config(cfg)
        assert len(errors) == 1 and errors[0].startswith("lambdas[1]: ")
        cfg["m"] = 2
        assert validate_config(cfg) == []


class TestExitCodes:
    def test_validation_failure_is_exit_2(self, tmp_path, capsys):
        code, _ = run(["norms", "--set", "grid.points_per_axis=127"],
                      tmp_path, "bad")
        assert code == EXIT_VALIDATION
        assert "grid.points_per_axis" in capsys.readouterr().err

    def test_unknown_potential_kind(self, tmp_path):
        code, _ = run(["sweep", "--set", "potential.kind=\"inverse\""],
                      tmp_path, "badpot")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command,setting,field", [
        ("spectrum", "spectrum.interval=[1]", "spectrum.interval"),
        ("spectrum", "spectrum.oracle_rel=0", "spectrum.oracle_rel"),
        ("kernel", "kernel.radii=5", "kernel.radii"),
        ("kernel", "kernel.radii=[5,\"far\"]", "kernel.radii[1]"),
        ("kernel", "kernel.n_directions=1.5", "kernel.n_directions"),
        ("kernel", "kernel.tol=-1e-6", "kernel.tol"),
        ("potential", "potential_report.truncations=[4,0]",
         "potential_report.truncations[1]"),
        ("potential", "potential_report.reference=\"big\"",
         "potential_report.reference"),
        ("potential", "potential_report.points_per_axis=513",
         "potential_report.points_per_axis"),
        ("potential", "potential_report.q=1", "potential_report.q"),
        pytest.param("potential",
                     ["grid.dimension=3", "grid.points_per_axis=32",
                      "potential_report.points_per_axis=64"],
                     "potential_report.points_per_axis",
                     id="potential-d3-report-too-coarse"),
        ("sweep", "tolerances.solver=0", "tolerances.solver"),
        ("norms", "tolerances.sqrt2_slack=[1]", "tolerances.sqrt2_slack"),
        ("norms", "family=3", "family"),
        ("kernel", "kernel=3", "kernel"),
        ("norms", "tolerances=[1]", "tolerances"),
        ("norms", "family={}", "family.kinds"),
        pytest.param("norms", "family=[]", "family",
                     id="norms-seeded-family-list"),
        ("norms", "family.kinds=[]", "family.kinds"),
        ("norms", "family.count=1.5", "family.count"),
        ("norms", "family.seed=-1", "family.seed"),
        ("norms", "family.modulation_radius=0", "family.modulation_radius"),
        ("sweep", "potential.kind=\"example\"", "grid.points_per_axis"),
        pytest.param("sweep",
                     ["potential.kind=\"example\"", "grid.half_width=2",
                      "grid.points_per_axis=256", "potential.J=30"],
                     "grid.half_width", id="sweep-staircase-outside-box"),
        ("sweep", "potential.q=0.5", "potential.q"),
        ("sweep", "potential.J=0", "potential.J"),
        pytest.param("sweep",
                     ["potential.kind=\"gaussian\"", "potential.width=0"],
                     "potential.width", id="sweep-gaussian-zero-width"),
        ("sweep", "potential.radius=0", "potential.radius"),
        ("spectrum", "spectrum.interval=[-0.5,-8]", "spectrum.interval"),
        ("spectrum", "spectrum.interval=[-1,1]", "spectrum.interval"),
        ("norms", "grid.point_per_axis=32", "grid.point_per_axis"),
        ("norms", "tolerance.sqrt2_slack=1", "tolerance"),
        ("sweep", "potential.dept=-3", "potential.dept"),
        ("spectrum", "spectrum.steps=1", "spectrum.steps"),
        pytest.param("norms", ["grid.dimension=4", "grid.points_per_axis=128"],
                     "grid.points_per_axis", id="norms-grid-over-budget"),
    ])
    def test_bad_section_value_is_exit_2(self, tmp_path, capsys, command,
                                         setting, field):
        settings = [setting] if isinstance(setting, str) else setting
        # --seed writes into the family section, which must not crash it
        seed = ["--seed", "3"] if setting == "family=[]" else []
        code, _ = run([command] + [a for s in settings for a in ("--set", s)]
                      + seed, tmp_path, "badsec")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        # a section that is not an object is reported once, not per field
        assert err.count(f"config error: {field}:") == 1
        if setting == "spectrum.steps=1":
            # the scan counts at the two ends; the grid option is gone
            assert "spectrum.steps: unknown field" in err

    @pytest.mark.parametrize("command,setting,field", [
        ("sweep", "eigen_margin=NaN", "eigen_margin"),
        ("spectrum", "spectrum.interval=[NaN,-0.5]", "spectrum.interval[0]"),
        ("sweep", "epsilons=[NaN]", "epsilons[0]"),
        ("kernel", "kernel.radii=[NaN]", "kernel.radii[0]"),
        ("norms", "tolerances.sqrt2_slack=NaN", "tolerances.sqrt2_slack"),
        ("sweep", "potential.depth=NaN", "potential.depth"),
        ("norms", "grid.half_width=Infinity", "grid.half_width"),
        ("resolvent", "lambdas=[-Infinity]", "lambdas[0]"),
    ])
    def test_non_finite_number_is_exit_2(self, tmp_path, capsys, command,
                                         setting, field):
        # JSON reads NaN and Infinity; NaN would pass every bound check
        code, _ = run([command, "--set", setting], tmp_path, "nonfinite")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config error: {field}: expected a finite number" in err

    DEEP_WELL = ["--set", "grid.dimension=3", "--set", "grid.half_width=6.0",
                 "--set", "grid.points_per_axis=32",
                 "--set", "potential.kind=\"well\"",
                 "--set", "potential.depth=-2.0",
                 "--set", "epsilons=[0.1]", "--set", "family.count=1"]

    def test_sweep_near_eigenvalue_refuses(self, tmp_path, capsys):
        # the deep well pulls an eigenvalue out of [0.5, 0.7]: precondition
        # failure, not a criteria failure
        code, _ = run(["sweep", "--set", "lambdas=[0.6]"] + self.DEEP_WELL,
                      tmp_path, "eig")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "config error: lambdas[0]:" in err
        assert "lambda=0.6" in err and "eigenvalue" in err

    def test_sweep_between_shifted_box_modes_runs(self, tmp_path, capsys):
        # [0.4, 0.6] holds 12 eigenvalues of H and 12 of P_m (the 12-fold box
        # mode 0.548 splits and one member moves to 0.451): V moves none
        # across the window, so lambda = 0.5 is not refused
        code, _ = run(["sweep", "--set", "lambdas=[0.5]"] + self.DEEP_WELL,
                      tmp_path, "boxmodes")
        assert code != EXIT_VALIDATION, capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_dimension_4_runs_or_is_refused(tmp_path, capsys, command):
    # every command either runs at d = 4 or names the field that rules it out
    code, _ = run([command, "--set", "grid.dimension=4",
                   "--set", "grid.points_per_axis=16",
                   "--set", "lambdas=[1.0]", "--set", "epsilons=[0.1,0.05]",
                   "--set", "family.count=2"], tmp_path, command)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_VALIDATION:
        assert re.search(r"^config error: [a-z_]+(\.[a-z_]+)+: ", err, re.M)
    else:
        assert code in (EXIT_OK, EXIT_CRITERIA)


# the summary key of each command's verdict
VERDICTS = {"norms": "embeddings_ok", "resolvent": "agreement_ok",
            "kernel": "band_ok", "sweep": "drift_ok", "spectrum": "ok",
            "potential": "ok"}
# no field, no kernel radius, V = 0 (the default) and no truncation
EMPTY = ["family.count=0", "kernel.radii=[]",
         "potential_report.truncations=[]", "grid.points_per_axis=32"]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_empty_input_checks_nothing(tmp_path, command):
    # a verdict that judged nothing is null rather than a pass, and exits 0
    code, out = run([command] + [a for s in EMPTY for a in ("--set", s)],
                    tmp_path, command)
    assert code == EXIT_OK
    comment, _, rows = read_table(out / f"{command}.csv")
    assert comment.startswith(f"# laplab-table-v1 {command} ")
    # the sweep still writes one row per cell, with nothing solved in it
    assert rows == [] or command == "sweep"
    s = read_summary(out / f"{command}.json")
    assert s["checked"] == 0
    assert s[VERDICTS[command]] is None


class TestSweepCommand:
    SMALL = ["--set", "lambdas=[0.75]", "--set", "epsilons=[0.1,0.05]",
             "--set", "family.count=1"]

    def test_eigen_prescan_recorded(self, tmp_path):
        code, out = run(["sweep", "--set", "potential.kind=\"well\"",
                         "--set", "potential.depth=-0.05"] + self.SMALL,
                        tmp_path, "well")
        s = read_summary(out / "sweep.json")
        grid = GridSpec(**DEFAULTS["grid"])
        nodes = int(np.count_nonzero(
            np.broadcast_to(grid.radius_grid(), grid.shape) <= 1.0))
        assert s["eigen_prescan"] == {"support_nodes": nodes, "weyl_shift": 0.0}
        assert code in (EXIT_OK, EXIT_CRITERIA)
        for key in ("drift_ok", "holes", "last_decade_drift", "drift_limit"):
            assert key in s
        # both epsilons lie in the last decade, one converged cell each
        assert s["checked"] == 2

    def test_weak_well_box_mode_window_runs(self, tmp_path, capsys):
        # eight box modes near 1.07 lie in [0.9, 1.1] for H and for P_m alike
        code, _ = run(["sweep", "--set", "potential.kind=\"well\"",
                       "--set", "potential.depth=-0.05",
                       "--set", "lambdas=[1.0]", "--set", "epsilons=[0.1]",
                       "--set", "family.count=1"], tmp_path, "box")
        assert code != EXIT_VALIDATION, capsys.readouterr().err

    def test_no_prescan_without_potential(self, tmp_path):
        _, out = run(["sweep"] + self.SMALL, tmp_path, "free")
        s = read_summary(out / "sweep.json")
        assert s["eigen_prescan"] == {"support_nodes": 0, "weyl_shift": 0.0}
        assert s["diagnostics"] == {"bs_solves": 0, "bs_iterations": 0,
                                    "bs_matvecs": 0, "bs_unknowns": 0,
                                    "bs_box": None}

    def test_work_counts_repeat(self, tmp_path):
        args = ["sweep", "--set", "potential.kind=\"well\"",
                "--set", "potential.depth=-0.05"] + self.SMALL
        _, out1 = run(args, tmp_path, "w1")
        _, out2 = run(args, tmp_path, "w2")
        s1 = read_summary(out1 / "sweep.json")
        s2 = read_summary(out2 / "sweep.json")
        assert s1["diagnostics"] == s2["diagnostics"]
        # one solve per cell and family member, on the well's support
        _, _, rows = read_table(out1 / "sweep.csv")
        diag = s1["diagnostics"]
        assert diag["bs_solves"] == len(rows) == 2
        assert diag["bs_unknowns"] == s1["eigen_prescan"]["support_nodes"]
        assert diag["bs_iterations"] >= diag["bs_solves"]
        # lgmres runs several matvecs per outer cycle, each an FFT pair on
        # the well's bounding box, padded, which is smaller than the lattice
        assert diag["bs_matvecs"] > diag["bs_iterations"]
        n = s1["config"]["grid"]["points_per_axis"]
        assert len(diag["bs_box"]) == s1["config"]["grid"]["dimension"]
        assert all(0 < b < n for b in diag["bs_box"])


class TestNorms:
    def test_ball_family_b_equals_bstar(self, tmp_path):
        # the unit-ball indicator lives in a single dyadic shell, where the
        # B and B* weights coincide
        code, out = run(["norms", "--set", "family.kinds=[\"ball\"]",
                         "--set", "family.count=1"], tmp_path, "ball")
        assert code == EXIT_OK
        _, header, rows = read_table(out / "norms.csv")
        b = float(rows[0][header.index("b")])
        bs = float(rows[0][header.index("bstar")])
        assert b == pytest.approx(bs, rel=1e-12)

    def test_failed_embedding_is_exit_3(self, tmp_path, monkeypatch):
        # a tiny B norm drives the B embedding ratio far above sqrt(2)
        monkeypatch.setattr(cli, "b_norm", lambda f: 1e-12)
        code, out = run(["norms", "--set", "family.count=1"], tmp_path,
                        "fail")
        assert code == EXIT_CRITERIA
        summary = read_summary(out / "norms.json")
        assert summary["checked"] == 1
        assert summary["embeddings_ok"] is False


class TestSpectrumCommand:
    def test_well_matches_lanczos(self, tmp_path):
        code, out = run(["spectrum", "--set", "potential.kind=well",
                         "--set", "potential.depth=-8",
                         "--set", "grid.points_per_axis=32"], tmp_path, "sp")
        assert code == EXIT_OK
        _, header, rows = read_table(out / "spectrum.csv")
        assert header == ["candidate", "multiplicity", "probe_halving_shift",
                          "oracle_rel"]
        s = read_summary(out / "spectrum.json")
        assert s["ok"] is True and s["oracle"]
        assert s["oracle_converged"] is True and s["oracle_matvecs"] > 0
        assert s["oracle_solves"] > 0 and s["oracle_residual"] <= 1e-8
        assert s["checked"] == len(rows) + len(s["oracle"])
        for cand, mult, width, rel in rows:
            assert int(mult) >= 1
            assert 0 < float(width) <= 1e-12 * max(1.0, abs(float(cand)))
            assert float(rel) <= 1e-10

    def test_benchmark_reads_the_output(self, tmp_path, monkeypatch):
        # bench/workloads.py reads the spectrum table's columns and the
        # summary's keys by name, so renaming one breaks the benchmark
        spec = importlib.util.spec_from_file_location(
            "bench_workloads",
            pathlib.Path(__file__).resolve().parents[1] / "bench"
            / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        sets = workloads.SPECTRUM_SETS + ["grid.points_per_axis=32"]
        cfg = workloads._config(cli, sets, None)
        nodes = int(np.count_nonzero(
            workloads._well(cfg, workloads._grid(cfg)).real_values()))
        code, out = run(["spectrum"] + [a for s in sets for a in ("--set", s)],
                        tmp_path, "bench")
        check = workloads._check_spectrum(cfg, nodes, code, str(out))
        assert check.ok, check.detail
        # the widest bracket the scan can leave on [-8, -0.5]
        s = read_summary(out / "spectrum.json")
        assert s["grid_step"] == perturb.BISECTION_WIDTH * 8.0

    def test_second_order_well_finishes(self, tmp_path):
        # m = 2 spans the lattice spectrum up to about 3e4 here; shift-invert
        # Lanczos reaches the bottom of it in few solves
        code, out = run(["spectrum", "--set", "m=2",
                         "--set", "potential.kind=well",
                         "--set", "potential.depth=-8",
                         "--set", "grid.points_per_axis=32"], tmp_path, "m2")
        assert code == EXIT_OK
        s = read_summary(out / "spectrum.json")
        assert s["ok"] is True and s["oracle_converged"] is True
        _, _, rows = read_table(out / "spectrum.csv")
        assert rows and all(float(rel) <= 1e-10 for *_, rel in rows)

    def test_no_oracle_without_potential(self, tmp_path):
        code, out = run(["spectrum", "--set", "grid.points_per_axis=32"],
                        tmp_path, "free")
        assert code == EXIT_OK
        s = read_summary(out / "spectrum.json")
        assert s["oracle_converged"] is None and s["oracle_residual"] is None
        assert s["oracle_matvecs"] == 0 and s["oracle_solves"] == 0

    @pytest.mark.parametrize("fake", [
        lambda eigs: eigs + 0.05,                        # every one moved
        lambda eigs: np.sort(np.append(eigs, -2.0)),     # one extra
        lambda eigs: eigs[eigs > -2.0],                  # the deepest lost
    ], ids=["shifted", "extra", "missing"])
    def test_unmatched_oracle_fails(self, tmp_path, monkeypatch, fake):
        # the match is two-sided: a Lanczos eigenvalue without a candidate
        # fails the run as much as a candidate without a Lanczos eigenvalue
        real = cli.direct_eigs

        def faked(m, V, k):
            res = real(m, V, k)
            return dataclasses.replace(res, values=fake(res.values))

        monkeypatch.setattr(cli, "direct_eigs", faked)
        code, _ = run(["spectrum", "--set", "potential.kind=well",
                       "--set", "potential.depth=-8",
                       "--set", "grid.points_per_axis=32"], tmp_path, "sp")
        assert code == EXIT_CRITERIA

    def test_unconverged_oracle_fails(self, tmp_path, monkeypatch):
        # eigenvalues that match every candidate judge nothing when ARPACK
        # did not converge
        real = cli.direct_eigs
        monkeypatch.setattr(
            cli, "direct_eigs",
            lambda m, V, k: dataclasses.replace(real(m, V, k),
                                                converged=False))
        code, out = run(["spectrum", "--set", "potential.kind=well",
                         "--set", "potential.depth=-8",
                         "--set", "grid.points_per_axis=32"], tmp_path, "sp")
        assert code == EXIT_CRITERIA
        s = read_summary(out / "spectrum.json")
        assert s["ok"] is False and s["oracle_converged"] is False
        assert s["oracle_matvecs"] > 0
        _, _, rows = read_table(out / "spectrum.csv")
        assert all(float(rel) <= 1e-10 for *_, rel in rows)


class TestResolventCommand:
    def test_dimension_4_runs(self, tmp_path):
        code, out = run(["resolvent", "--set", "grid.dimension=4",
                         "--set", "grid.points_per_axis=16",
                         "--set", "lambdas=[1.0]", "--set", "family.count=1"],
                        tmp_path, "d4")
        assert code == EXIT_OK
        _, _, rows = read_table(out / "resolvent.csv")
        assert len(rows) == 1
        assert read_summary(out / "resolvent.json")["checked"] == 1

    @pytest.mark.parametrize("command", ["resolvent", "sweep"])
    def test_sphere_beyond_table_is_exit_2(self, tmp_path, capsys, command):
        # r = sqrt(2) is past this grid's radial cutoff 0.549; the resolvent
        # quadratures used to march panels away from rho_max without end.
        # One rule for every command: the sweep refuses the same lambda.
        code, _ = run([command, "--set", "grid.points_per_axis=16",
                       "--set", "grid.half_width=40",
                       "--set", "lambdas=[2.0]",
                       "--set", "family.count=1"], tmp_path, "cutoff")
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("config error: ") == 1
        assert "config error: lambdas[0]: " in err
        assert "grid.points_per_axis" in err and "grid.half_width" in err

    def test_failed_pairing_is_a_hole(self, tmp_path, monkeypatch, capsys):
        real = cli.epsilon_limit_pairing

        def flaky(f, g, spec):
            if spec.lam == 1.0:
                raise ArithmeticError("forced failure")
            return real(f, g, spec)

        monkeypatch.setattr(cli, "epsilon_limit_pairing", flaky)
        code, out = run(["resolvent", "--set", "grid.points_per_axis=32",
                         "--set", "lambdas=[0.5,1.0]",
                         "--set", "family.count=1"], tmp_path, "hole")
        assert code == EXIT_HOLES
        s = read_summary(out / "resolvent.json")
        # the pair without a hole is the one the verdict judged
        assert s["holes"] == 1 and s["checked"] == 1
        _, _, rows = read_table(out / "resolvent.csv")
        assert [row[3] == "nan" for row in rows] == [False, True]
        assert "forced failure" in capsys.readouterr().err


class TestKernelCommand:
    def test_no_direction_checks_nothing(self, tmp_path):
        # no ray means no sample: a null verdict, not a failed band
        code, out = run(["kernel", "--set", "kernel.n_directions=0"],
                        tmp_path, "knodir")
        assert code == EXIT_OK
        s = read_summary(out / "kernel.json")
        assert s["samples"] == 0 and s["band_ok"] is None

    def test_impossible_band_fails_criteria(self, tmp_path):
        code, _ = run(["kernel", "--set", "kernel.band_factor=1.0000001",
                       "--set", "kernel.radii=[5.0,40.0]",
                       "--set", "kernel.n_directions=1"],
                      tmp_path, "kband")
        assert code == EXIT_CRITERIA


class TestDeterminism:
    def test_tables_byte_identical(self, tmp_path):
        args = ["norms", "--set", "family.count=4", "--seed", "9"]
        _, out1 = run(args, tmp_path, "run1")
        _, out2 = run(args, tmp_path, "run2")
        a = (out1 / "norms.csv").read_bytes()
        b = (out2 / "norms.csv").read_bytes()
        assert a == b

    def test_summaries_identical_modulo_timestamp(self, tmp_path):
        args = ["norms", "--set", "family.count=2", "--seed", "5"]
        _, out1 = run(args, tmp_path, "s1")
        _, out2 = run(args, tmp_path, "s2")
        s1 = read_summary(out1 / "norms.json")
        s2 = read_summary(out2 / "norms.json")
        s1.pop("timestamp"), s2.pop("timestamp")
        assert s1 == s2

    def test_spectrum_table_byte_identical(self, tmp_path):
        # the Lanczos oracle column depends on the eigensolver's start vector
        args = ["spectrum", "--set", "potential.kind=well",
                "--set", "potential.depth=-8",
                "--set", "grid.points_per_axis=32"]
        _, out1 = run(args, tmp_path, "sp1")
        _, out2 = run(args, tmp_path, "sp2")
        a = (out1 / "spectrum.csv").read_bytes()
        _, _, rows = read_table(out1 / "spectrum.csv")
        assert any(row[3] != "nan" for row in rows)
        assert a == (out2 / "spectrum.csv").read_bytes()

    def test_seed_changes_table(self, tmp_path):
        _, out1 = run(["norms", "--seed", "1"], tmp_path, "d1")
        _, out2 = run(["norms", "--seed", "2"], tmp_path, "d2")
        assert (out1 / "norms.csv").read_bytes() != \
            (out2 / "norms.csv").read_bytes()


class TestTableFormat:
    def test_versioned_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(str(path), "demo", ["a", "b"],
                    [[1.0 / 3.0, "x"], [2.0, "y"]])
        comment, header, rows = read_table(path)
        assert comment.split() == ["#", "laplab-table-v1", "demo",
                                   "laplab/0.14.0", "family/1"]
        assert header == ["a", "b"]
        # 17 significant digits: floats survive the round trip exactly
        assert float(rows[0][0]) == 1.0 / 3.0
