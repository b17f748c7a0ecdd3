"""Config parsing, experiment runner exit codes, and result persistence."""

import os
from pathlib import Path

import numpy as np
import pytest

from regnets import ConfigError, EpsGrid, io
from regnets.cli import EXPERIMENTS, main, parse_config, run, report


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

# one passing config per experiment, each about 1 s; tests/golden/<name> holds
# the CSV files each one wrote when the golden files were last regenerated
PASSING = {
    "selftest": SELFTEST,
    "sqrt_measure": (
        "experiment = sqrt_measure\ndim = 1\nhalf_width = 32\npoints_per_axis = 16384\n"
        "eps_grid = 0.25,0.17678,0.125,0.088388,0.0625,0.044194\n"
        "mollifier_exponent = 3\natoms = 0.1:1\n"
    ),
    "schrodinger_sweep": (
        "experiment = schrodinger_sweep\ndim = 1\nhalf_width = 1.5\npoints_per_axis = 2048\n"
        "coefficient_family = log_time\ndata = bump\n" + EPS6 + "T = 0.1\ntime_steps = 10\n"
    ),
    "free_example": (
        "experiment = free_example\ndim = 1\nhalf_width = 64\npoints_per_axis = 16384\n"
        "mollifier_exponent = 6\neps_grid = 0.5,0.35355,0.25,0.17678,0.125,0.088388\n"
        "times = 0.5\n"
    ),
    "coherence": (
        "experiment = coherence\ndim = 1\nhalf_width = 4\npoints_per_axis = 2048\n"
        "eps_grid = 0.25,0.177,0.125,0.088,0.0625,0.0442\nmollifier_exponent = 4\n"
        "T = 0.1\ntime_steps = 50\ntolerance = 1e-2\n"
    ),
    "association": (
        "experiment = association\ndim = 1\nhalf_width = 2\npoints_per_axis = 2048\n"
        "mollifier_exponent = 4\n" + EPS6 + "T = 0.1\ntime_steps = 50\nsnapshot_time = 0.1\n"
    ),
}


# ---------------------------------------------------------------------------
# config parsing


class TestParseConfig:
    def test_valid_config_with_defaults(self, tmp_path):
        cfg = parse_config(_write(tmp_path, COHERENCE))
        assert cfg["experiment"] == "coherence"
        assert cfg["points_per_axis"] == 128
        assert cfg["tolerance"] == 1e-3

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# a comment\n\n" + COHERENCE.replace("dim = 1\n", "dim = 1\n   \n") + "# trailing\n"
        assert parse_config(_write(tmp_path, text)) == parse_config(
            _write(tmp_path, COHERENCE, name="plain.txt")
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.txt")
        # a directory and non-UTF-8 bytes are unreadable configs, not tracebacks
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(tmp_path)
        (tmp_path / "latin1.txt").write_bytes(b"experiment = selftest\n# caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(tmp_path / "latin1.txt")

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
        # and a config that names none
        path = _write(tmp_path, "dim = 1\n")
        with pytest.raises(ConfigError, match="missing required key 'experiment'"):
            parse_config(path)

    def test_unknown_key(self, tmp_path):
        for text, line in [
            ("experiment = selftest\nwidth = 3\n", 2),
            (SWEEP + "potential = 0.3\n", 9),
            (SQRT_MEASURE + "association_tol = 0.5\n", 7),
            (COHERENCE + "data = dirac\n", 8),
        ]:
            path = _write(tmp_path, text)
            with pytest.raises(ConfigError, match="unknown key") as exc:
                parse_config(path)
            assert exc.value.line == line

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
# golden tables

GOLDEN = Path(__file__).resolve().parent / "golden"


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _assert_matches_golden(out, golden):
    """The same CSV files as golden, with the same header and row count each.

    A numeric cell may move by 1e-12 of its column's largest golden magnitude
    (a per-cell relative rule would flag roundoff in cells near zero); text
    cells must match exactly. checks.csv is compared on check and passed
    only: its detail echoes numbers the tables hold, or roundoff-level drifts.
    """
    assert sorted(f.name for f in out.glob("*.csv")) == sorted(f.name for f in golden.iterdir())
    for path in sorted(golden.iterdir()):
        header, rows = io.read_csv(path)
        got_header, got_rows = io.read_csv(out / path.name)
        assert got_header == header and len(got_rows) == len(rows), path.name
        if path.name == "checks.csv":
            assert [r[:2] for r in got_rows] == [r[:2] for r in rows]
            continue
        for col, column in enumerate(header):
            want = [_number(r[col]) for r in rows]
            got = [r[col] for r in got_rows]
            if None in want:
                assert got == [r[col] for r in rows], f"{path.name}:{column}"
                continue
            scale = max(abs(w) for w in want)
            worst = max(abs(float(g) - w) for g, w in zip(got, want))
            assert worst <= 1e-12 * scale, f"{path.name}:{column} moved by {worst:.3e}"


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
        # no seed (nothing is random) and no check counts (checks.csv has them)
        assert set(manifest) == {
            "created", "regnets_version", "numpy_version", "scipy_version",
            "experiment", "elapsed_seconds", "threads",
        }
        # selftest sweeps no eps on threads
        assert manifest["threads"] == "1"
        assert "[PASS] selftest" in capsys.readouterr().out
        # checks.csv is the only checks table
        assert sorted(f.name for f in out.iterdir()) == ["checks.csv", "config.txt", "manifest.txt"]

    def test_results_directory_holds_one_run(self, tmp_path):
        out = tmp_path / "res"
        assert run(_write(tmp_path, PASSING["sqrt_measure"], name="sqrt.txt"), out_dir=out) == 0
        (out / "notes.txt").write_text("kept\n")
        # a run that exits 2 writes and removes nothing
        assert run(_write(tmp_path, "experiment = selftest\nwidth = 3\n", name="bad.txt"), out_dir=out) == 2
        assert (out / "sqrt_measure.csv").exists()
        assert run(_write(tmp_path, SELFTEST), out_dir=out) == 0
        assert sorted(f.name for f in out.iterdir()) == ["checks.csv", "config.txt", "manifest.txt", "notes.txt"]
        assert io.read_manifest(out / "manifest.txt")["experiment"] == "selftest"
        # rerunning the copied config into its own directory keeps it
        assert run(out / "config.txt", out_dir=out) == 0
        assert (out / "config.txt").read_text() == SELFTEST

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "experiment = free_example\ndim = two\n")
        assert run(path, out_dir=tmp_path / "res") == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, bad_line",
        [
            (SWEEP.replace("coefficient_family = constant", "coefficient_family = wobbly"), 5),
            (SWEEP + "data = gaussian\n", 9),
            # coherence takes no data key, so this exits 2 as an unknown key
            (COHERENCE + "data = dirac\n", 8),
            (SQRT_MEASURE + "density = triangle\n", 7),
            (SQRT_MEASURE.replace("dim = 1", "dim = 3"), 2),
            (SQRT_MEASURE.replace("atoms = 0:1", "atoms = 0.5"), 6),
            (SQRT_MEASURE.replace("atoms = 0:1", "atoms = a:1"), 6),
            (SWEEP.replace("points_per_axis = 128", "points_per_axis = 100"), 4),
            (SWEEP.replace("half_width = 4", "half_width = 0"), 3),
            (SWEEP.replace("time_steps = 10", "time_steps = 0"), 8),
            (SWEEP.replace("time_steps = 10", "time_steps = -5"), 8),
            (COHERENCE.replace("T = 0.1", "T = 0"), 6),
            (COHERENCE.replace("T = 0.1", "T = -0.1"), 6),
        ],
        ids=["coefficient_family", "sweep_data", "coherence_data", "density",
             "dim", "atom_without_weight", "atom_not_a_number", "points_per_axis", "half_width",
             "zero_time_steps", "negative_time_steps", "zero_T", "negative_T"],
    )
    def test_value_outside_enumeration_exits_2(self, tmp_path, capsys, text, bad_line):
        out = tmp_path / "res"
        assert run(_write(tmp_path, text), out_dir=out) == 2
        assert f"line {bad_line}" in capsys.readouterr().err
        assert not out.exists()

    def test_2d_jump_sweep_conserves_l2(self, tmp_path):
        # the paper's central case: a non-smooth principal coefficient in 2-D,
        # solved on the Krylov path; the smallest eps, 0.5, is 8 grid spacings.
        # The log-time family's shape profile takes one coordinate per axis too.
        for family in ("jump", "log_time"):
            text = (
                "experiment = schrodinger_sweep\ndim = 2\nhalf_width = 1\npoints_per_axis = 32\n"
                f"coefficient_family = {family}\neps_grid = 1.0,0.9,0.8,0.7,0.6,0.5\n"
                "T = 0.1\ntime_steps = 10\n"
            )
            out = tmp_path / family
            assert run(_write(tmp_path, text), out_dir=out) == 0
            _, rows = io.read_csv(out / "checks.csv")
            assert {name: passed for name, passed, _ in rows}["l2_conservation"] == "1"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run(tmp_path / "nope.txt", out_dir=tmp_path / "res") == 2
        # a directory, non-UTF-8 bytes, and results that would overwrite a file
        (tmp_path / "cfgdir").mkdir()
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(SELFTEST.encode() + b"# caf\xe9\n")
        assert run(tmp_path / "cfgdir", out_dir=tmp_path / "res") == 2
        assert run(latin1, out_dir=tmp_path / "res") == 2
        assert not (tmp_path / "res").exists()
        taken = _write(tmp_path, "not a results directory\n", name="taken")
        assert run(_write(tmp_path, SELFTEST), out_dir=taken) == 2
        assert taken.read_text() == "not a results directory\n"
        err = capsys.readouterr().err
        assert err.count("config error: cannot read config file") == 2
        assert f"config error: results directory {taken} is an existing file" in err
        # a results directory that cannot be made is a run failure, not a traceback
        assert run(_write(tmp_path, SELFTEST), out_dir=taken / "res") == 1
        assert "run failed: cannot write results" in capsys.readouterr().err

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
        assert "config error" in err and "snapshot time 0.2" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (SWEEP + "mollifier_exponent = 0.5\n",
             "exponent m=0.5 must exceed dimension n=1"),
            (PASSING["free_example"].replace("mollifier_exponent = 6", "mollifier_exponent = 1.5"),
             "exponent m=1.5 must exceed dimension n=1 / 0.5"
             " for an integrable rho**0.5"),
            (PASSING["free_example"].replace("times = 0.5", "times = 0.0"),
             "dispersive bound is vacuous at t = 0"),
            (PASSING["free_example"].replace("mollifier_exponent = 6", "mollifier_exponent = nan"),
             "exponent must be finite, got nan"),
            (PASSING["free_example"].replace("mollifier_exponent = 6", "mollifier_exponent = inf"),
             "exponent must be finite, got inf"),
        ],
        ids=["exponent_below_dim", "free_example_sqrt_not_integrable", "free_example_zero_time",
             "free_example_nan_exponent", "free_example_inf_exponent"],
    )
    def test_unusable_mollifier_or_times_exits_2(self, tmp_path, capsys, text, message):
        out = tmp_path / "res"
        assert run(_write(tmp_path, text), out_dir=out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_library_run_with_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        out = tmp_path / "res"
        assert run(_write(tmp_path, SWEEP), out_dir=out, workers=workers) == 2
        assert f"workers must be a positive integer, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_sqrt_measure_mollifies_twice_per_eps(self, tmp_path, monkeypatch):
        # once for the phi_eps net, which the lower-bound fit reads too, and
        # once in the plateau check's own cutoff_sqrt
        import regnets.cli
        import regnets.measures

        calls = []
        real = regnets.measures.mollify_measure

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(regnets.cli, "mollify_measure", counted)
        monkeypatch.setattr(regnets.measures, "mollify_measure", counted)
        assert run(_write(tmp_path, PASSING["sqrt_measure"]), out_dir=tmp_path / "res") == 0
        eps = [0.25, 0.17678, 0.125, 0.088388, 0.0625, 0.044194]
        assert sorted(calls) == sorted(eps * 2)

    def test_sqrt_measure_without_atoms_or_density_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, SQRT_MEASURE.replace("atoms = 0:1\n", ""))
        out = tmp_path / "res"
        assert run(path, out_dir=out) == 2
        assert "total mass 0.0 != 1" in capsys.readouterr().err
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
            ("density = gaussian\ndensity_weight = 1\ndensity_params = 0.5, 7.0\n",
             "density_params takes one value for a gaussian density, got 2"),
            ("atoms = 0:1\ndensity = none\ndensity_weight = 0.5\ndensity_params = -3\n",
             "density_params needs a density"),
            ("atoms = 0:1.2\ndensity = gaussian\ndensity_weight = -0.2\n",
             "density_weight must be >= 0, got -0.2"),
            ("atoms = 0:0.5\ndensity_weight = 0.5\n", "density_weight 0.5 needs a density"),
        ],
        ids=["total_mass", "zero_weight", "negative_sigma", "zero_half_width",
             "two_density_params", "density_keys_without_density", "negative_density_weight",
             "density_weight_without_density"],
    )
    def test_measure_that_is_not_a_probability_exits_2(self, tmp_path, capsys, measure, message):
        path = _write(tmp_path, SQRT_MEASURE.replace("atoms = 0:1\n", measure))
        out = tmp_path / "res"
        assert run(path, out_dir=out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            SQRT_MEASURE.replace("half_width = 4", "half_width = 1").replace(
                "points_per_axis = 128", "points_per_axis = 1024"),
            PASSING["free_example"].replace("half_width = 64", "half_width = 1"),
            SWEEP.replace("half_width = 4", "half_width = 0.9") + "data = bump\n",
        ],
        ids=["sqrt_measure", "free_example", "sweep_bump"],
    )
    def test_box_too_small_for_the_test_functions_exits_2(self, tmp_path, capsys, text):
        # the experiment's own bumps of radius 1 at the origin need half_width > 1
        out = tmp_path / "res"
        assert run(_write(tmp_path, text), out_dir=out) == 2
        assert "config error: bump support reaches the box boundary" in capsys.readouterr().err
        assert not out.exists()

    def test_coefficient_dipping_below_c0_exits_2(self, tmp_path, capsys):
        # log-time c_k falls below c0 = 0.5 before t = 10: input the caller can fix
        text = SWEEP.replace("constant", "log_time").replace("T = 0.1", "T = 10")
        out = tmp_path / "res"
        assert run(_write(tmp_path, text), out_dir=out) == 2
        assert "config error: c_0 dips below c0=0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_library_failure_that_is_not_input_exits_1(self, tmp_path, capsys):
        # the reference solution cannot meet a 1e-12 self-convergence gap at
        # 128 points: a failed self-check is a run failure, not unusable input
        out = tmp_path / "res"
        assert run(_write(tmp_path, COHERENCE + "tolerance = 1e-12\n"), out_dir=out) == 1
        assert "run failed: reference self-convergence gap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_runs_and_passes(self, tmp_path, name):
        # an experiment without a config in PASSING fails here
        out = tmp_path / "res"
        assert run(_write(tmp_path, PASSING[name]), out_dir=out) == 0
        _assert_matches_golden(out, GOLDEN / name)

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

    def test_sweep_tables_do_not_depend_on_workers(self, tmp_path):
        # the calling thread plus workers - 1 pool threads solve the 6 eps;
        # --workers changes only the manifest's thread count
        path = _write(tmp_path, PASSING["schrodinger_sweep"])
        for workers in (1, 2, 3):
            assert run(path, out_dir=tmp_path / f"w{workers}", workers=workers) == 0
            assert io.read_manifest(tmp_path / f"w{workers}" / "manifest.txt")["threads"] == str(workers)
        for fname in ("norm_history.csv", "sup_h1.csv", "checks.csv"):
            tables = {(tmp_path / f"w{w}" / fname).read_bytes() for w in (1, 2, 3)}
            assert len(tables) == 1, fname
        # no more threads than eps values
        assert run(path, out_dir=tmp_path / "w9", workers=9) == 0
        assert io.read_manifest(tmp_path / "w9" / "manifest.txt")["threads"] == "6"

    @pytest.mark.parametrize("cpus, threads", [({0}, "1"), (set(range(4)), "4"), (set(range(16)), "6")])
    def test_free_example_records_one_thread_per_cpu(self, tmp_path, monkeypatch, cpus, threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        out = tmp_path / "res"
        assert run(_write(tmp_path, PASSING["free_example"]), out_dir=out, workers=3) == 0
        assert io.read_manifest(out / "manifest.txt")["threads"] == threads

    @pytest.mark.parametrize("name, cpus, threads", [
        ("coherence", {0}, "1"), ("coherence", set(range(4)), "4"),
        ("coherence", set(range(16)), "7"),  # 6 eps and the certified gap
        ("association", {0}, "1"), ("association", set(range(4)), "4"),
        ("association", set(range(16)), "6"),
    ])
    def test_lab_experiments_record_one_thread_per_cpu(self, tmp_path, monkeypatch, name, cpus, threads):
        # --workers acts on schrodinger_sweep only
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        out = tmp_path / "res"
        assert run(_write(tmp_path, PASSING[name]), out_dir=out, workers=3) == 0
        assert io.read_manifest(out / "manifest.txt")["threads"] == threads
        _assert_matches_golden(out, GOLDEN / name)

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
        assert "threads:    1" in text
        assert "PASS" in text

    def test_report_missing_manifest_exits_2(self, tmp_path, capsys):
        assert report(tmp_path / "nowhere") == 2
        assert "manifest not found" in capsys.readouterr().err
        # a manifest that is a directory or not UTF-8 cannot be read
        (tmp_path / "dir" / "manifest.txt").mkdir(parents=True)
        (tmp_path / "latin1").mkdir()
        (tmp_path / "latin1" / "manifest.txt").write_bytes(b"experiment = caf\xe9\n")
        for bad in ("dir", "latin1"):
            assert report(tmp_path / bad) == 2
            assert "error: cannot read manifest" in capsys.readouterr().err
        # and so can a checks.csv that is missing, a directory, not UTF-8,
        # empty, header-only, or has a row without three fields, next to a
        # valid manifest: run always writes at least one check row
        bad_checks = {
            "checks_missing": None,
            "checks_dir": "dir",
            "checks_latin1": b"check,passed,detail\ncaf\xe9,1,\n",
            "checks_empty": b"",
            "checks_header_only": b"check,passed,detail\n",
            "checks_short_row": b"check,passed,detail\nl2_conservation,1\n",
        }
        for bad, content in bad_checks.items():
            (tmp_path / bad).mkdir()
            io.write_manifest(tmp_path / bad / "manifest.txt", io.base_manifest(experiment="x"))
            if content == "dir":
                (tmp_path / bad / "checks.csv").mkdir()
            elif content is not None:
                (tmp_path / bad / "checks.csv").write_bytes(content)
            assert report(tmp_path / bad) == 2, bad
            assert "error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(_write(tmp_path, SWEEP)), "--out", str(out), "--workers", workers])
        assert exc.value.code == 2
        assert "argument --workers: must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

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
