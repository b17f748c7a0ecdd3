"""Config parsing, experiment runner exit codes, and result persistence."""

import numpy as np
import pytest

from regnets import ConfigError, EpsGrid, io
from regnets.cli import main, parse_config, run, report


def _write(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


SELFTEST = "experiment = selftest\n"

EPS6 = "eps_grid = 0.5,0.25,0.125,0.0625,0.03125,0.015625\n"

SWEEP = (
    "experiment = schrodinger_sweep\ndim = 1\nhalf_width = 4\npoints_per_axis = 128\n"
    "coefficient_family = constant\n"
    + EPS6
    + "T = 0.1\ntime_steps = 10\n"
)

SQRT_MEASURE = (
    "experiment = sqrt_measure\ndim = 1\nhalf_width = 4\npoints_per_axis = 128\n"
    + EPS6
    + "atoms = 0:1\n"
)

COHERENCE = (
    "experiment = coherence\ndim = 1\nhalf_width = 4\npoints_per_axis = 128\n"
    + EPS6
    + "T = 0.1\ntime_steps = 10\n"
)


# ---------------------------------------------------------------------------
# config parsing


class TestParseConfig:
    def test_valid_config_with_defaults(self, tmp_path):
        cfg = parse_config(_write(tmp_path, COHERENCE))
        assert cfg["experiment"] == "coherence"
        assert cfg["points_per_axis"] == 128
        assert cfg["data"] == "gaussian"
        assert cfg["tolerance"] == 1e-3

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# a comment\n\n" + COHERENCE.replace("dim = 1\n", "dim = 1\n   \n") + "# trailing\n"
        assert parse_config(_write(tmp_path, text)) == parse_config(
            _write(tmp_path, COHERENCE, name="plain.txt")
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.txt")

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "experiment = selftest\nthis is not a pair\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.line == 2

    def test_duplicate_key_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "experiment = free_example\ndim = 1\ndim = 2\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert exc.value.line == 3

    def test_unknown_experiment(self, tmp_path):
        path = _write(tmp_path, "experiment = frobnicate\n")
        with pytest.raises(ConfigError, match="unknown experiment") as exc:
            parse_config(path)
        assert exc.value.line == 1

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, "experiment = selftest\nwidth = 3\n")
        with pytest.raises(ConfigError, match="unknown key") as exc:
            parse_config(path)
        assert exc.value.line == 2

    def test_untypable_value(self, tmp_path):
        path = _write(tmp_path, "experiment = free_example\ndim = two\n")
        with pytest.raises(ConfigError, match="cannot parse") as exc:
            parse_config(path)
        assert exc.value.line == 2

    def test_missing_required_key(self, tmp_path):
        text = (
            "experiment = free_example\ndim = 1\nhalf_width = 4\n"
            "points_per_axis = 64\neps_grid = 0.5,0.25\ntimes = 0.5\n"
        )
        # mollifier_exponent is required for free_example
        with pytest.raises(ConfigError, match="mollifier_exponent"):
            parse_config(_write(tmp_path, text))

    def test_invalid_eps_grid_rejected(self, tmp_path):
        text = (
            "experiment = free_example\ndim = 1\nhalf_width = 4\n"
            "points_per_axis = 64\nmollifier_exponent = 6\ntimes = 0.5\n"
            "eps_grid = 0.25,0.5\n"
        )
        with pytest.raises(ConfigError, match="eps_grid") as exc:
            parse_config(_write(tmp_path, text))
        assert exc.value.line == 7

    def test_floats_value_parsed_to_tuple_then_eps_grid(self, tmp_path):
        text = (
            "experiment = free_example\ndim = 1\nhalf_width = 4\n"
            "points_per_axis = 64\nmollifier_exponent = 6\ntimes = 0.5,1.0\n"
            "eps_grid = 0.5,0.4,0.3,0.25,0.2,0.125\n"
        )
        cfg = parse_config(_write(tmp_path, text))
        assert isinstance(cfg["eps_grid"], EpsGrid)
        assert cfg["times"] == (0.5, 1.0)


# ---------------------------------------------------------------------------
# runner exit codes and results layout


class TestRun:
    def test_selftest_passes_and_writes_results(self, tmp_path, capsys):
        path = _write(tmp_path, SELFTEST)
        out = tmp_path / "res"
        assert run(path, out_dir=out) == 0
        assert (out / "config.txt").exists()
        assert (out / "manifest.txt").exists()
        header, rows = io.read_csv(out / "checks.csv")
        assert header == ["check", "passed", "detail"]
        assert rows and all(r[1] == "1" for r in rows)
        manifest = io.read_manifest(out / "manifest.txt")
        assert manifest["experiment"] == "selftest"
        assert "seed" not in manifest
        assert manifest["n_failed"] == "0"
        assert "[PASS] selftest" in capsys.readouterr().out

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "experiment = free_example\ndim = two\n")
        assert run(path, out_dir=tmp_path / "res") == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, bad_line",
        [
            (SWEEP.replace("coefficient_family = constant", "coefficient_family = wobbly"), 5),
            (SWEEP + "data = gaussian\n", 9),
            (COHERENCE + "data = dirac\n", 8),
            (SQRT_MEASURE + "density = triangle\n", 7),
            (SQRT_MEASURE.replace("dim = 1", "dim = 3"), 2),
            (SQRT_MEASURE.replace("atoms = 0:1", "atoms = 0.5"), 6),
            (SQRT_MEASURE.replace("atoms = 0:1", "atoms = a:1"), 6),
            (SWEEP.replace("points_per_axis = 128", "points_per_axis = 100"), 4),
            (SWEEP.replace("half_width = 4", "half_width = 0"), 3),
        ],
        ids=["coefficient_family", "sweep_data", "coherence_data", "density",
             "dim", "atom_without_weight", "atom_not_a_number", "points_per_axis", "half_width"],
    )
    def test_value_outside_enumeration_exits_2(self, tmp_path, capsys, text, bad_line):
        out = tmp_path / "res"
        assert run(_write(tmp_path, text), out_dir=out) == 2
        assert f"line {bad_line}" in capsys.readouterr().err
        assert not out.exists()

    def test_2d_jump_sweep_conserves_l2(self, tmp_path):
        # the paper's central case: a non-smooth principal coefficient in 2-D,
        # solved on the Krylov path; the smallest eps, 0.5, is 8 grid spacings
        text = (
            "experiment = schrodinger_sweep\ndim = 2\nhalf_width = 1\npoints_per_axis = 32\n"
            "coefficient_family = jump\neps_grid = 1.0,0.9,0.8,0.7,0.6,0.5\n"
            "T = 0.1\ntime_steps = 10\n"
        )
        out = tmp_path / "res"
        assert run(_write(tmp_path, text), out_dir=out) == 0
        _, rows = io.read_csv(out / "checks.csv")
        assert {name: passed for name, passed, _ in rows}["l2_conservation"] == "1"

    def test_missing_config_exits_2(self, tmp_path):
        assert run(tmp_path / "nope.txt", out_dir=tmp_path / "res") == 2

    def test_unusable_geometry_exits_nonzero(self, tmp_path, capsys):
        # eps far below grid resolution: the run aborts with a config error
        # instead of silently producing an under-resolved mollifier
        text = (
            "experiment = free_example\ndim = 1\nhalf_width = 4\n"
            "points_per_axis = 64\nmollifier_exponent = 6\ntimes = 0.5\n"
            "eps_grid = 0.5,0.25,0.125,0.0625,0.03125,0.015625\n"
        )
        path = _write(tmp_path, text)
        assert run(path, out_dir=tmp_path / "res") == 2
        err = capsys.readouterr().err
        assert "grid spacing 0.125 exceeds 0.5/8; need points_per_axis >= 128" in err

    def test_snapshot_time_beyond_T_exits_2(self, tmp_path, capsys):
        text = (
            "experiment = association\ndim = 1\nhalf_width = 4\n"
            "points_per_axis = 128\neps_grid = 0.5,0.25,0.125,0.0625,0.03125,0.015625\n"
            "T = 0.1\ntime_steps = 10\nsnapshot_time = 0.2\n"
        )
        path = _write(tmp_path, text)
        out = tmp_path / "res"
        assert run(path, out_dir=out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "snapshot_time 0.2" in err
        assert not out.exists()

    def test_sqrt_measure_without_atoms_or_density_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, SQRT_MEASURE.replace("atoms = 0:1\n", ""))
        out = tmp_path / "res"
        assert run(path, out_dir=out) == 2
        assert "sqrt_measure needs atoms and/or a density" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "measure, message",
        [
            ("atoms = 0:0.5\ndensity = gaussian\ndensity_weight = 0.2\n", "total mass 0.7 != 1"),
            ("atoms = 0:1;1:0\n", "atom weights must be positive"),
            ("density = gaussian\ndensity_weight = 1\ndensity_params = -1.0\n",
             "sigma must be finite and > 0, got -1.0"),
            ("density = uniform\ndensity_weight = 1\ndensity_params = 0.0\n",
             "half_width must be finite and > 0, got 0.0"),
        ],
        ids=["total_mass", "zero_weight", "negative_sigma", "zero_half_width"],
    )
    def test_measure_that_is_not_a_probability_exits_2(self, tmp_path, capsys, measure, message):
        path = _write(tmp_path, SQRT_MEASURE.replace("atoms = 0:1\n", measure))
        out = tmp_path / "res"
        assert run(path, out_dir=out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    def test_2d_cutoff_plateau_is_the_euclidean_ball(self, tmp_path):
        # chi_j is radial, so it is below 1 in the corners of the square |x|_inf <= 2^j
        text = (
            "experiment = sqrt_measure\ndim = 2\nhalf_width = 8\npoints_per_axis = 256\n"
            "eps_grid = 1.0,0.9,0.8,0.7,0.6,0.5\natoms = 0.1,0.2:1\n"
        )
        out = tmp_path / "res"
        run(_write(tmp_path, text), out_dir=out)
        _, rows = io.read_csv(out / "checks.csv")
        assert {name: passed for name, passed, _ in rows}["cutoff_plateau_identity"] == "1"

    def test_determinism_same_config_same_tables(self, tmp_path):
        path = _write(tmp_path, SELFTEST)
        assert run(path, out_dir=tmp_path / "a") == 0
        assert run(path, out_dir=tmp_path / "b") == 0
        for fname in ("checks.csv",):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()


class TestReport:
    def test_report_on_passing_run(self, tmp_path, capsys):
        path = _write(tmp_path, SELFTEST)
        out = tmp_path / "res"
        run(path, out_dir=out)
        capsys.readouterr()
        assert report(out) == 0
        text = capsys.readouterr().out
        assert "experiment: selftest" in text
        assert "PASS" in text

    def test_report_missing_manifest_exits_2(self, tmp_path, capsys):
        assert report(tmp_path / "nowhere") == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_report_flags_failures(self, tmp_path, capsys):
        out = tmp_path / "res"
        out.mkdir()
        io.write_manifest(out / "manifest.txt", io.base_manifest(experiment="x"))
        io.write_csv(
            out / "checks.csv",
            ["check", "passed", "detail"],
            [("good", 1, ""), ("bad", 0, "off by one")],
        )
        assert report(out) == 1
        assert "FAIL" in capsys.readouterr().out


class TestMain:
    def test_main_run_dispatch(self, tmp_path):
        path = _write(tmp_path, SELFTEST)
        out = tmp_path / "res"
        assert main(["run", str(path), "--out", str(out), "--workers", "2"]) == 0
        manifest = io.read_manifest(out / "manifest.txt")
        assert manifest["experiment"] == "selftest"
        assert "seed" not in manifest

    def test_main_report_dispatch(self, tmp_path):
        assert main(["report", str(tmp_path / "missing")]) == 2

    def test_main_requires_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# persistence round trips


class TestIo:
    def test_manifest_round_trip(self, tmp_path):
        entries = {"alpha": "1", "beta": "two words", "gamma": "3.5"}
        io.write_manifest(tmp_path / "m.txt", entries)
        assert io.read_manifest(tmp_path / "m.txt") == entries

    def test_manifest_malformed_line_number(self, tmp_path):
        (tmp_path / "m.txt").write_text("a = 1\nbroken\n")
        with pytest.raises(ConfigError) as exc:
            io.read_manifest(tmp_path / "m.txt")
        assert exc.value.line == 2

    def test_base_manifest_records_versions(self):
        entries = io.base_manifest()
        assert entries["numpy_version"] == np.__version__
        assert "seed" not in entries
        assert "created" in entries

    def test_csv_round_trip_preserves_float_precision(self, tmp_path):
        value = 0.1234567890123456789
        io.write_csv(tmp_path / "t.csv", ["x", "z"], [(value, 1 + 2j)])
        header, rows = io.read_csv(tmp_path / "t.csv")
        assert header == ["x", "z"]
        assert float(rows[0][0]) == value
        assert complex(rows[0][1]) == 1 + 2j
