"""CLI runner: config handling, manifests, determinism, report contents."""

import filecmp
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from _helpers import without_bind

import brsmfg
from brsmfg import cli
from brsmfg.cli import SUBCOMMANDS, ConfigError, main, resolve_config, run


def read_report(out: Path) -> dict[str, str]:
    entries = {}
    for line in (out / "report.txt").read_text().splitlines():
        key, _, val = line.partition("=")
        entries[key] = val
    return entries


def assert_same_files(a: Path, b: Path, names) -> None:
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), f"{name} differs"


class TestConfig:
    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown config key: fpk.bogus"):
            resolve_config("fpk", None, ["fpk.bogus=1"])

    def test_unknown_key_in_file(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("model.preset=ou\nnope=1\n")
        with pytest.raises(ConfigError, match="unknown config key: nope"):
            resolve_config("fpk", str(cfgfile), [])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config("fpk", "/nonexistent/x.cfg", [])

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfgfile = tmp_path / "ok.cfg"
        cfgfile.write_text("# comment\n\nmodel.preset=lq\n")
        cfg = resolve_config("fpk", str(cfgfile), [])
        assert cfg.str_("model.preset") == "lq"

    def test_bad_value_reports_key(self):
        cfg = resolve_config("fpk", None, ["fpk.cells=many"])
        with pytest.raises(ConfigError, match="fpk.cells"):
            cfg.int_("fpk.cells")

    def test_exit_codes(self, tmp_path):
        assert main(["fpk", "--set", "bogus=1", "--out", str(tmp_path / "x")]) == 2

    def test_workers_option_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--workers", "2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, override, message",
        [
            ("fpk", "model.alpha=0", "penalty must be positive"),
            ("simulate", "model.alpha=nan", "penalty must be positive"),
            ("fpk", "model.sigma=nan", "diffusion entries must be finite"),
            ("fpk", "model.sigma=inf", "diffusion entries must be finite"),
            ("fpk", "fpk.cfl_safety=2", "cfl_safety"),
            ("simulate", "sim.n_particles=1", "two particles"),
            ("simulate", "sim.dt=10", "MPC window"),
            ("fpk", "model.preset=crowd", "crowd.sigma"),
            ("chaos-study", "chaos.n_values=1,10", "two particles"),
            ("chaos-study", "sim.dt=10", "MPC window"),
            ("chaos-study", "chaos.n_values=10", "at least two particle counts"),
            ("chaos-study", "chaos.n_values=", "at least two particle counts"),
            ("chaos-study", "chaos.n_seeds=0", "at least one seed"),
            # particle counts below two, or not increasing, and a negative first seed
            ("chaos-study", "chaos.n_values=1,40", "key chaos.n_values: "),
            ("chaos-study", "chaos.n_values=10,0", "key chaos.n_values: "),
            ("chaos-study", "chaos.n_values=40,10", "key chaos.n_values: "),
            ("chaos-study", "chaos.n_values=40,40", "key chaos.n_values: "),
            ("chaos-study", "chaos.seed0=-1", "key chaos.seed0: expected a non-negative integer, got -1"),
            # 7 steps of 0.03 end at t = 0.21, not at the reference's t = 0.2
            ("chaos-study", "model.T=0.2 sim.dt=0.03", "key sim.dt: t_final/dt = 6.66"),
            ("fpk", "fpk.n_records=0", "key fpk.n_records:"),
            ("wealth", "wealth.n_records=0", "key wealth.n_records:"),
            ("crowd", "crowd.n_records=0", "key crowd.n_records:"),
            ("mpc-order", "mpc.dt_values=0.1", "at least two window sizes"),
            ("mpc-order", "mpc.dt_values=", "at least two window sizes"),
            ("mpc-order", "mpc.dt_values=0.05,0.1", "strictly decreasing"),
            ("fpk", "model.init_var=nan", "init_var must be positive and finite, got nan"),
            ("fpk", "model.init_var=-1", "init_var must be positive and finite, got -1.0"),
            ("simulate", "model.init_var=nan", "init_var must be positive and finite, got nan"),
            ("simulate", "model.preset=mean_coupling model.coupling_strength=nan", "strength must be finite, got nan"),
            ("crowd", "crowd.lam=nan", "lam must be nonnegative and finite, got nan"),
            ("crowd", "crowd.psi_weight=inf", "psi_weight must be finite, got inf"),
            ("mpc-order", "mpc.dt_values=0.1,nan", "dt_list entries must be positive and finite"),
            ("fpk", "fpk.t_final=nan", "t_final must be positive and finite, got nan"),
            ("simulate", "model.preset=crowd crowd.bandwidth=nan", "kde_bandwidth must be positive"),
            ("mfg", "mfg.n_t=0", "key mfg.n_t:"),
            ("compare", "mfg.n_t=-1", "key mfg.n_t:"),
            ("mfg", "mfg.tol=inf", "tol must be positive and finite"),
            ("mfg", "mfg.tol=nan", "tol must be positive and finite"),
            ("compare", "mfg.tol=0", "tol must be positive and finite"),
            ("mfg", "model.T=inf", "horizon must be positive and finite, got inf"),
            ("compare", "model.T=inf", "horizon must be positive and finite, got inf"),
            ("simulate", "model.T=inf", "horizon must be positive and finite, got inf"),
            ("simulate", "sim.t_final=nan", "t_final must be positive"),
            ("simulate", "sim.t_final=inf", "t_final must be positive"),
            ("chaos-study", "sim.t_final=nan", "t_final must be positive"),
            ("chaos-study", "sim.t_final=inf", "t_final must be positive"),
            ("wealth", "wealth.psi_width=inf", "psi_width must be positive and finite"),
            ("wealth", "wealth.psi_width=-inf", "psi_width must be positive and finite"),
            ("wealth", "wealth.kappa=nan", "kappa must be positive"),
            ("wealth", "wealth.z_min=inf", "z_min"),
            ("fpk", "fpk.xmax=inf", "grid axis bounds must be finite, got [-6.0, inf]"),
            ("wealth", "wealth.zmax=inf", "grid axis bounds must be finite, got [1e-06, inf]"),
            ("wealth", "wealth.ymin=-inf", "grid axis bounds must be finite, got [-inf, 3.0]"),
            ("crowd", "crowd.xmax=inf", "grid axis bounds must be finite, got [-2.0, inf]"),
            ("simulate", "model.preset=crowd crowd.target1=nan,0", "key crowd.target1: expected two"),
            # negative initial-law widths, named by their field
            ("crowd", "crowd.ic_std=-0.5 crowd.cells=16 crowd.t_final=0.05", "ic_std must be nonnegative and finite, got -0.5"),
            ("simulate", "model.preset=wealth wealth.y_std=-1", "y_std must be nonnegative and finite, got -1.0"),
            ("simulate", "model.preset=wealth wealth.z_log_std=-0.3", "z_log_std must be nonnegative and finite, got -0.3"),
            ("wealth", "wealth.y_std=-1", "y_std must be nonnegative and finite, got -1.0"),
        ]
        + [
            # before, numpy's seeding raised from inside the run: a traceback, exit 1
            ("simulate", "sim.seed=-1", "key sim.seed: seed must be a non-negative integer, got -1"),
            ("simulate", "sim.record_every=0", "key sim.record_every: record_every must be >= 1"),
            ("simulate", "sim.coupling=bogus", "key sim.coupling: coupling must be one of"),
            ("simulate", "sim.n_particles=1", "key sim.n_particles: n_particles must be >= 2"),
        ]
        # a time step that is not positive and finite, or wider than the horizon, names sim.dt
        + [
            (subcommand, f"sim.dt={dt}", f"key sim.dt: {message}")
            for subcommand in ("simulate", "chaos-study")
            for dt, message in (
                ("0", "dt must be positive and finite, got 0.0"),
                ("-1", "dt must be positive and finite, got -1.0"),
                ("nan", "dt must be positive and finite, got nan"),
                ("inf", "dt must be positive and finite, got inf"),
                ("10", "MPC window dt=10.0 must lie in (0, T="),
            )
        ]
        + [
            ("crowd", f"{key}={pair}", f"key {key}: expected two comma-separated finite numbers")
            for key in ("crowd.target1", "crowd.target2", "crowd.center1", "crowd.center2")
            for pair in ("nan,0", "0,inf", "-inf,0.5")
        ]
        # too few cells for the FPK solver, named where the grid is built
        + [
            ("fpk", f"fpk.cells={n}", f"key fpk.cells: the grid needs at least 8 cells per axis, got {n}")
            for n in range(-1, 8)
        ]
        + [
            (subcommand, f"fpk.cells={n}", f"key fpk.cells: the grid needs at least 8 cells per axis, got {n}")
            for subcommand in ("mfg", "compare", "chaos-study", "mpc-order")
            for n in (1, 7)
        ]
        + [
            (subcommand, f"{key}={n}", f"key {key}: the grid needs at least 8 cells per axis, got {n}")
            for subcommand, key in (("crowd", "crowd.cells"), ("wealth", "wealth.ycells"), ("wealth", "wealth.zcells"))
            for n in (1, 7)
        ],
    )
    def test_rejected_value_is_a_config_error(self, tmp_path, capsys, subcommand, override, message):
        # ``override`` holds one or more space-separated KEY=VALUE items
        sets = [arg for item in override.split() for arg in ("--set", item)]
        assert main([subcommand, *sets, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_bad_seed_count_is_rejected_before_the_reference_solve(self, tmp_path, capsys, monkeypatch):
        calls = []
        solve = cli.solve_fpk

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_fpk", spy)
        assert main(["chaos-study", "--set", "chaos.n_seeds=0", "--out", str(tmp_path / "x")]) == 2
        assert calls == []
        assert "key chaos.n_seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, key",
        [
            ("wealth", "model.sigma=2"),
            ("crowd", "model.T=1"),
            ("chaos-study", "sim.seed=3"),
            ("chaos-study", "sim.n_particles=10"),
            ("chaos-study", "sim.record_every=1"),
            ("chaos-study", "fpk.t_final=0.05"),
            ("simulate", "sim.use_alpha_dot=false"),
            ("mfg", "fpk.t_final=0.05"),
            ("compare", "fpk.cfl_safety=0.1"),
            ("mpc-order", "fpk.n_records=1"),
            ("crowd", "crowd.bandwidth=0.3"),
        ],
    )
    def test_keys_the_run_does_not_read_are_unknown(self, tmp_path, capsys, subcommand, key):
        assert main([subcommand, "--set", key, "--out", str(tmp_path / "x")]) == 2
        assert f"unknown config key: {key.partition('=')[0]}" in capsys.readouterr().err


SMALL_FPK = [
    "model.T=1.0",
    "fpk.cells=128",
    "fpk.t_final=1.0",
    "fpk.n_records=2",
]


# one small, fast config per subcommand
TINY = {
    "simulate": ["model.T=0.1", "sim.dt=0.02", "sim.n_particles=20", "sim.record_every=2"],
    "fpk": SMALL_FPK,
    "mfg": ["model.preset=lq", "model.T=0.5", "fpk.cells=64", "mfg.n_t=4"],
    "compare": ["model.preset=mean_coupling", "model.T=0.25", "fpk.cells=64", "mfg.n_t=4"],
    "chaos-study": ["model.T=0.2", "sim.dt=0.02", "fpk.cells=64", "chaos.n_values=10,40", "chaos.n_seeds=2"],
    "mpc-order": ["model.preset=lq", "model.T=1.0", "fpk.cells=64", "mpc.dt_values=0.1,0.05"],
    "wealth": ["wealth.ycells=8", "wealth.zcells=8", "wealth.t_final=0.02", "wealth.n_records=1"],
    "crowd": ["crowd.cells=12", "crowd.t_final=0.02", "crowd.n_records=1"],
}


# the model presets each subcommand accepts; wealth and crowd take no model.* key
PRESETS = {
    "simulate": ("ou", "lq", "mean_coupling", "wealth", "crowd"),
    "wealth": (None,),
    "crowd": (None,),
}
ONE_D_PRESETS = ("ou", "lq", "mean_coupling")

# listed by every subcommand but read by none; the benchmark harness still passes it
UNREAD_KEYS = {"run.workers"}


class _ReadRecorder(dict):
    """Config values that note every key a run reads."""

    def __init__(self, values, read: set[str]):
        super().__init__(values)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_every_listed_key_is_read(tmp_path, monkeypatch, subcommand):
    read: set[str] = set()
    resolve = cli.resolve_config

    def recording(*args):
        cfg = resolve(*args)
        cfg.values = _ReadRecorder(cfg.values, read)
        return cfg

    monkeypatch.setattr(cli, "resolve_config", recording)
    # the manifest lists every key; writing it is not a read
    monkeypatch.setattr(cli, "_write_manifest", lambda out, subcommand, cfg: None)
    for k, preset in enumerate(PRESETS.get(subcommand, ONE_D_PRESETS)):
        overrides = TINY[subcommand] + ([] if preset is None else [f"model.preset={preset}"])
        # run.out is read only when no output directory is passed
        assert run(subcommand, None, overrides + [f"run.out={tmp_path / str(k)}"], None) == 0
    assert sorted(set(SUBCOMMANDS[subcommand][0]) - read - UNREAD_KEYS) == []


def output_names(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir())


class TestRuns:
    @pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
    def test_fpk_determinism(self, tmp_path, subcommand):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run(subcommand, None, TINY[subcommand], str(out))
            assert code == 0
            outs.append(out)
        assert "report.txt" in output_names(outs[0])
        assert output_names(outs[0]) == output_names(outs[1])
        assert_same_files(outs[0], outs[1], output_names(outs[0]))

    @pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
    def test_manifest_round_trip(self, tmp_path, subcommand):
        first = tmp_path / "first"
        assert run(subcommand, None, TINY[subcommand], str(first)) == 0
        second = tmp_path / "second"
        assert run(subcommand, str(first / "manifest.txt"), [], str(second)) == 0
        assert output_names(first) == output_names(second)
        assert_same_files(first, second, output_names(first))

    def test_fpk_report_has_variance_and_flags(self, tmp_path):
        out = tmp_path / "ou"
        assert run("fpk", None, ["model.T=8.0", "fpk.t_final=8.0"], str(out)) == 0
        rep = read_report(out)
        assert abs(float(rep["terminal_variance"]) - 0.5) <= 0.01
        assert float(rep["mass_drift_max"]) <= 1e-12
        assert rep["boundary_mass_flag"] == "no"

    def test_simulate_repeat_runs_give_identical_outputs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run(
                "simulate",
                None,
                [
                    "model.preset=mean_coupling",
                    "model.T=0.2",
                    "sim.dt=0.02",
                    "sim.t_final=0.2",
                    "sim.n_particles=50",
                    "sim.coupling=leave_one_out",
                    "sim.record_every=5",
                ],
                str(out),
            )
            assert code == 0
            outs.append(out)
        assert_same_files(outs[0], outs[1], ["particles_final.csv", "metrics.csv", "report.txt"])

    def test_mpc_order_report(self, tmp_path):
        out = tmp_path / "order"
        assert (
            run(
                "mpc-order",
                None,
                ["model.preset=lq", "model.T=1.0", "fpk.xmin=-4", "fpk.xmax=4", "fpk.cells=320"],
                str(out),
            )
            == 0
        )
        rep = read_report(out)
        assert 0.7 <= float(rep["fitted_order"]) <= 1.3

    def test_mfg_subcommand(self, tmp_path):
        out = tmp_path / "mfg"
        assert run("mfg", None, ["model.preset=lq", "model.T=1.0", "mfg.n_t=8"], str(out)) == 0
        rep = read_report(out)
        assert rep["converged"] == "yes"
        assert float(rep["last_residual"]) <= 1e-12
        assert (out / "values.csv").exists() and (out / "iterations.csv").exists()

    def test_default_mfg_variance_is_close_to_the_fine_slice_value(self, tmp_path):
        # the default run takes 16 slices of width 0.5; the explicit sweep this
        # replaced read 1.01416 there against 0.99961 at 256 slices, a gap of 0.0146
        variances = []
        for n_t in (16, 256):
            out = tmp_path / f"mfg{n_t}"
            assert run("mfg", None, [f"mfg.n_t={n_t}"], str(out)) == 0
            variances.append(float(read_report(out)["terminal_variance"]))
        assert abs(variances[0] - variances[1]) <= 0.0146

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("BRSMFG_OUT", str(target))
        assert run("fpk", None, SMALL_FPK, None) == 0
        assert (target / "report.txt").exists()

    def test_crowd_subcommand(self, tmp_path):
        out = tmp_path / "crowd"
        code = run(
            "crowd",
            None,
            ["crowd.cells=24", "crowd.t_final=0.1", "crowd.n_records=2", "crowd.sigma=0.15"],
            str(out),
        )
        assert code == 0
        rep = read_report(out)
        assert float(rep["mass_drift_max"]) <= 1e-10
        assert (out / "density.csv").exists()

    def test_compare_subcommand(self, tmp_path):
        out = tmp_path / "cmp"
        code = run(
            "compare",
            None,
            ["model.preset=mean_coupling", "model.T=0.5", "fpk.cells=128", "mfg.n_t=4"],
            str(out),
        )
        assert code == 0
        rep = read_report(out)
        assert float(rep["max_w1"]) >= 0.0
        assert (out / "compare.csv").exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "noconv"
        code = run(
            "mfg",
            None,
            [
                "model.preset=mean_coupling",
                "model.T=0.5",
                "fpk.cells=128",
                "mfg.n_t=4",
                "mfg.max_iters=1",
                "mfg.tol=1e-16",
            ],
            str(out),
        )
        assert code == 4
        assert read_report(out)["converged"] == "no"

    def test_wealth_subcommand(self, tmp_path):
        out = tmp_path / "wealth"
        code = run(
            "wealth",
            None,
            ["wealth.ycells=12", "wealth.zcells=16", "wealth.t_final=0.05", "wealth.n_records=1"],
            str(out),
        )
        assert code == 0
        rep = read_report(out)
        assert float(rep["mass_drift_max"]) <= 1e-10
        # the law and the kernel are symmetric in y, so the mean configuration stays at 0
        assert abs(float(rep["terminal_mean_y"])) <= 1e-12
        assert float(rep["min_density"]) >= -1e-13


def test_wealth_writes_the_same_bytes_without_bind(tmp_path, monkeypatch):
    """The costs bound to the FPK faces change no output byte of a wealth run."""
    sets = ["wealth.ycells=12", "wealth.zcells=16", "wealth.t_final=0.05", "wealth.n_records=2"]
    assert run("wealth", None, sets, str(tmp_path / "bound")) == 0
    build = cli.build_wealth_model
    monkeypatch.setattr(cli, "build_wealth_model", lambda params: without_bind(build(params)))
    assert run("wealth", None, sets, str(tmp_path / "unbound")) == 0
    names = sorted(p.name for p in (tmp_path / "bound").iterdir())
    assert "density.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "unbound").iterdir())
    assert_same_files(tmp_path / "bound", tmp_path / "unbound", names)


def modules_after_runs(configs: dict, out) -> list[str]:
    """The modules a fresh interpreter has loaded after importing the package and running ``configs``.

    A fresh interpreter, since this one has scipy and numpy.ma loaded by the tests.
    """
    script = """
import json, sys
import brsmfg, brsmfg.cli as cli
configs, out = json.loads(sys.argv[1]), sys.argv[2]
for sub, overrides in sorted(configs.items()):
    assert cli.run(sub, None, overrides, f"{out}/{sub}") == 0, sub
print(json.dumps(sorted(sys.modules)))
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(configs), str(out)],
        capture_output=True, text=True, env=env, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runs_load_no_scipy(tmp_path):
    """The package and every subcommand's run import no scipy module."""
    assert [m for m in modules_after_runs(TINY, tmp_path) if m.split(".")[0] == "scipy"] == []


def test_runs_load_no_numpy_ma(tmp_path):
    """No run imports numpy.ma; np.unique would on its first call, inside the W1 distance of compare and chaos-study."""
    assert "numpy.ma" not in modules_after_runs(TINY, tmp_path)


@pytest.mark.parametrize("module", ["brsmfg"] + [f"brsmfg.{m.name}" for m in pkgutil.iter_modules(brsmfg.__path__)])
def test_every_exported_name_resolves(module):
    """Each name in ``__all__`` is an attribute, so ``from <module> import *`` cannot fail."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
