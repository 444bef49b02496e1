"""Configuration-driven experiment runner.

Every solver and study is exposed as a subcommand reading a flat ``key=value``
config file (dotted prefixes act as sections) plus repeatable ``--set``
overrides. Each run writes ``manifest.txt`` (the fully resolved config, itself
a valid config file for byte-identical re-runs), ``report.txt`` with headline
metrics, and the data CSVs of the module interfaces. All numeric output uses
17 significant digits and no timestamps, so identical configs produce
identical bytes. Runs are headless and offline.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from .fokker_planck import MIN_CELLS, FpkConfig, NumericalError, solve_fpk
from .measures import Grid, format_float, format_value, moments, write_csv, write_empirical_csv
from .mfg import PicardConfig, compare_brs_mfg, mpc_reduction_check, solve_mfg_picard
from .model import ModelSpec, coupling_measure
from .particle_sim import SimConfig, propagation_of_chaos_study, simulate_brs_nplayer
from .presets import lq_model, mean_coupling_model, ou_model

__all__ = ["ConfigError", "RunConfig", "run", "main"]

ENV_OUT = "BRSMFG_OUT"


class ConfigError(Exception):
    """Bad config file, unknown key, or unusable value."""


_MODEL = {
    "model.preset": "ou",
    "model.T": "auto",
    "model.sigma": "1.0",
    "model.alpha": "1.0",
    "model.init_var": "0.25",
    "model.coupling_strength": "1.0",
}

_RUN = {
    # changes nothing; kept because the benchmark harness passes run.workers=1
    "run.workers": "1",
    "run.out": "",
}

_WEALTH_MODEL = {
    "wealth.kappa": "0.05",
    "wealth.psi_width": "1.0",
    "wealth.z_min": "1e-6",
    "wealth.y_std": "1.0",
    "wealth.z_log_mean": "0.0",
    "wealth.z_log_std": "0.3",
}

_CROWD_MODEL = {
    "crowd.lam": "1.0",
    "crowd.sigma": "0.2",
    "crowd.psi_weight": "1.0",
    "crowd.xmin": "-2.0",
    "crowd.xmax": "2.0",
    "crowd.ymin": "-2.0",
    "crowd.ymax": "2.0",
    "crowd.center1": "-0.5,0.0",
    "crowd.center2": "0.5,0.0",
    "crowd.target1": "1.0,0.0",
    "crowd.target2": "-1.0,0.0",
    "crowd.ic_std": "0.5",
}

_SIM = {
    "sim.dt": "0.001",
    "sim.t_final": "auto",
    "sim.coupling": "full_empirical",
}

# one particle run's size, seed and snapshots; chaos-study sets the size and
# seed per run and reads only the final snapshot
_SIM_RUN = {
    "sim.n_particles": "1000",
    "sim.seed": "0",
    "sim.record_every": "100",
}

# the grid of every one-dimensional subcommand
_GRID_1D = {
    "fpk.xmin": "-6.0",
    "fpk.xmax": "6.0",
    "fpk.cells": "400",
}

# the time stepping of a forward solve to the run's horizon; the MFG solvers
# step on their own
_FPK_STEPPING = {
    "fpk.cfl_safety": "0.9",
    "fpk.n_records": "8",
    "fpk.boundary": "no_flux",
}

_MFG = {
    "mfg.n_t": "16",
    "mfg.max_iters": "50",
    "mfg.damping": "0.5",
    "mfg.tol": "1e-4",
}

class RunConfig:
    """Resolved flat configuration: canonical string values keyed by dotted names."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    def str_(self, key: str) -> str:
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"key {key} is not a key of this subcommand") from None

    def float_(self, key: str) -> float:
        try:
            return float(self.str_(key))
        except ValueError as exc:
            raise ConfigError(f"key {key}: expected a number, got {self.values[key]!r}") from exc

    def auto_float(self, key: str, default: float) -> float:
        """The key's number, or ``default`` when it is ``auto``."""
        if self.str_(key).strip().lower() == "auto":
            return default
        return self.float_(key)

    def int_(self, key: str) -> int:
        try:
            return int(self.str_(key))
        except ValueError as exc:
            raise ConfigError(f"key {key}: expected an integer, got {self.values[key]!r}") from exc

    def floats(self, key: str) -> list[float]:
        try:
            return [float(tok) for tok in self.str_(key).split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"key {key}: expected comma-separated numbers") from exc

    def ints(self, key: str) -> list[int]:
        try:
            return [int(tok) for tok in self.str_(key).split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"key {key}: expected comma-separated integers") from exc

    def lines(self) -> list[str]:
        return [f"{k}={self.values[k]}" for k in sorted(self.values)]


def _parse_config_text(text: str, source: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(subcommand: str, config_path: str | None, overrides: list[str]) -> RunConfig:
    defaults = SUBCOMMANDS[subcommand][0]
    values = dict(defaults)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {config_path}")
        file_kv = _parse_config_text(path.read_text(), str(path))
        for key, val in file_kv.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {key}")
            values[key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = val.strip()
    return RunConfig(values)


@contextmanager
def _building():
    """A value that a config object rejects (``ValueError``) is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model(cfg: RunConfig) -> ModelSpec:
    preset = cfg.str_("model.preset")
    sigma = cfg.float_("model.sigma")
    alpha = cfg.float_("model.alpha")
    init_var = cfg.float_("model.init_var")
    if preset == "ou":
        return ou_model(T=cfg.auto_float("model.T", 8.0), sigma=sigma, init_var=init_var, alpha=alpha)
    if preset == "lq":
        return lq_model(T=cfg.auto_float("model.T", 1.0), sigma=sigma, init_var=init_var, alpha=alpha)
    if preset == "mean_coupling":
        return mean_coupling_model(
            T=cfg.auto_float("model.T", 1.0),
            sigma=sigma,
            strength=cfg.float_("model.coupling_strength"),
            init_var=init_var,
            alpha=alpha,
        )
    if preset == "wealth":
        model = build_wealth_model(_wealth_params(cfg))
        return model.with_horizon(cfg.auto_float("model.T", model.T))
    if preset == "crowd":
        params = _crowd_params(cfg, cfg.auto_float("model.T", 0.5))
        # only particle runs read the KDE bandwidth; the grid solvers use the density itself
        return build_crowd_model(replace(params, kde_bandwidth=cfg.float_("crowd.bandwidth")))
    raise ConfigError(f"unknown model preset {preset!r}")


def _wealth_params(cfg: RunConfig) -> WealthParams:
    return WealthParams(
        kappa=cfg.float_("wealth.kappa"),
        psi_width=cfg.float_("wealth.psi_width"),
        z_min=cfg.float_("wealth.z_min"),
        y_std=cfg.float_("wealth.y_std"),
        z_log_mean=cfg.float_("wealth.z_log_mean"),
        z_log_std=cfg.float_("wealth.z_log_std"),
    )


def _crowd_params(cfg: RunConfig, T: float) -> CrowdParams:
    def pair(key):
        vals = cfg.floats(key)
        if len(vals) != 2 or not np.all(np.isfinite(vals)):
            raise ConfigError(f"key {key}: expected two comma-separated finite numbers, got {cfg.values[key]!r}")
        return (vals[0], vals[1])

    s = cfg.float_("crowd.sigma")
    return CrowdParams(
        lam=cfg.float_("crowd.lam"),
        sigma=(s, s),
        domain=(
            (cfg.float_("crowd.xmin"), cfg.float_("crowd.xmax")),
            (cfg.float_("crowd.ymin"), cfg.float_("crowd.ymax")),
        ),
        horizon=T,
        psi_weight=cfg.float_("crowd.psi_weight"),
        targets=(pair("crowd.target1"), pair("crowd.target2")),
        ic_centers=(pair("crowd.center1"), pair("crowd.center2")),
        ic_std=cfg.float_("crowd.ic_std"),
    )


def _cells(cfg: RunConfig, key: str) -> int:
    """The key's cell count along one axis, at least the FPK solver's MIN_CELLS."""
    n = cfg.int_(key)
    if n < MIN_CELLS:
        raise ConfigError(f"key {key}: the grid needs at least {MIN_CELLS} cells per axis, got {n}")
    return n


def _model_1d(cfg: RunConfig, subcommand: str) -> tuple[ModelSpec, Grid]:
    """The model and its ``fpk.*`` grid, for the one-dimensional subcommands."""
    model = _model(cfg)
    if model.d != 1:
        raise ConfigError(f"the {subcommand} subcommand is one-dimensional")
    grid = Grid(
        mins=(cfg.float_("fpk.xmin"),),
        maxs=(cfg.float_("fpk.xmax"),),
        cells=(_cells(cfg, "fpk.cells"),),
    )
    return model, grid


def _initial_density(model: ModelSpec, grid: Grid):
    return coupling_measure(
        tuple(model.population(p).initial_law.grid_density(grid) for p in range(model.n_populations))
    )


def _fpk_config(cfg: RunConfig, section: str, t_final: float) -> FpkConfig:
    """The ``<section>.*`` time-stepping keys; a section without a boundary key has no-flux walls."""
    key = f"{section}.n_records"
    n_records = cfg.int_(key)
    if n_records < 1:
        raise ConfigError(f"key {key}: expected at least one record after t=0, got {n_records}")
    return FpkConfig(
        t_final=t_final,
        cfl_safety=cfg.float_(f"{section}.cfl_safety"),
        boundary=cfg.values.get(f"{section}.boundary", "no_flux"),
        record_times=tuple(np.linspace(0.0, t_final, n_records + 1)),
    )


def _time_slices(cfg: RunConfig) -> int:
    """``mfg.n_t``, the number of time slices of an MFG solve."""
    n_t = cfg.int_("mfg.n_t")
    if n_t < 1:
        raise ConfigError(f"key mfg.n_t: expected at least one time slice, got {n_t}")
    return n_t


def _picard_config(cfg: RunConfig) -> PicardConfig:
    return PicardConfig(
        max_iters=cfg.int_("mfg.max_iters"),
        damping=cfg.float_("mfg.damping"),
        tol=cfg.float_("mfg.tol"),
    )


def _sim_config(cfg: RunConfig, model: ModelSpec, n_particles: int, seed: int, record_every: int) -> SimConfig:
    """The ``sim.*`` keys as a particle run; a rejected value names its key."""
    dt, t_final, coupling = cfg.float_("sim.dt"), cfg.auto_float("sim.t_final", model.T), cfg.str_("sim.coupling")
    try:
        sim = SimConfig(dt, t_final, n_particles, seed, record_every, coupling)
    except ValueError as exc:
        # SimConfig's message opens with the field it rejects
        raise ConfigError(f"key sim.{str(exc).split()[0]}: {exc}") from exc
    try:
        model.check_window(sim.dt)
    except ValueError as exc:
        raise ConfigError(f"key sim.dt: {exc}") from exc
    return sim


def _write_manifest(out: Path, subcommand: str, cfg: RunConfig) -> None:
    lines = [f"# brsmfg {subcommand} manifest", f"# version={__version__}"]
    lines += cfg.lines()
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_report(out: Path, entries: list[tuple[str, object]]) -> None:
    lines = [f"{key}={format_value(val)}" for key, val in entries]
    (out / "report.txt").write_text("\n".join(lines) + "\n")


def _fpk_report_entries(path) -> list[tuple[str, object]]:
    rep = path.report
    return [
        ("mass_drift_max", rep["mass_drift_max"]),
        ("min_density", rep["min_density"]),
        ("boundary_mass_max", rep["boundary_mass_max"]),
        ("boundary_mass_flag", "yes" if rep["boundary_mass_flag"] else "no"),
        ("n_steps", int(rep["n_steps"])),
    ]


# ---------------------------------------------------------------------------
# subcommand implementations, each returning (exit_code, report entries)
# ---------------------------------------------------------------------------

Report = tuple[int, list[tuple[str, object]]]


def _run_simulate(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model = _model(cfg)
        sim = _sim_config(
            cfg, model, cfg.int_("sim.n_particles"), cfg.int_("sim.seed"), cfg.int_("sim.record_every")
        )
    rec = simulate_brs_nplayer(model, sim)
    final = rec.final()
    write_empirical_csv(out / "particles_final.csv", [final.empirical(p) for p in range(model.n_populations)])
    rows = []
    for k, t in enumerate(rec.times):
        snap = rec.snapshots[k]
        for pop in range(model.n_populations):
            mom = moments(snap.empirical(pop))
            for ax in range(model.d):
                rows.append([t, f"pop{pop}_mean_x{ax}", mom.mean[ax]])
                rows.append([t, f"pop{pop}_var_x{ax}", mom.variance[ax]])
    write_csv(out / "metrics.csv", ["t", "metric_name", "value"], rows)
    entries: list[tuple[str, object]] = [("t_final", rec.times[-1]), ("n_steps", len(rec.times) - 1)]
    for pop in range(model.n_populations):
        mom = moments(final.empirical(pop))
        for ax in range(model.d):
            entries.append((f"pop{pop}_terminal_mean_x{ax}", mom.mean[ax]))
            entries.append((f"pop{pop}_terminal_var_x{ax}", mom.variance[ax]))
    return 0, entries


def _run_fpk(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model, grid = _model_1d(cfg, "fpk")
        fpk = _fpk_config(cfg, "fpk", cfg.auto_float("fpk.t_final", model.T))
        m0 = _initial_density(model, grid)
    path = solve_fpk(model, m0, fpk)
    path.write_csv(out / "density.csv", preamble=[f"preset={cfg.str_('model.preset')}"])
    mom = moments(path.final(0))
    return 0, [
        ("t_final", path.times[-1]),
        ("terminal_mean", mom.mean[0]),
        ("terminal_variance", mom.variance[0]),
    ] + _fpk_report_entries(path)


def _run_mfg(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model, grid = _model_1d(cfg, "mfg")
        picard = _picard_config(cfg)
        n_t = _time_slices(cfg)
        m0 = _initial_density(model, grid)
    sol = solve_mfg_picard(model, m0, grid, n_t, cfg=picard)
    sol.value.write_csv(out / "values.csv")
    sol.density_path.write_csv(out / "density.csv")
    sol.write_iteration_csv(out / "iterations.csv")
    mom = moments(sol.density_path.final(0))
    return 0 if sol.converged else 4, [
        ("converged", "yes" if sol.converged else "no"),
        ("n_iterations", sol.n_iterations),
        ("last_residual", sol.residuals[-1]),
        ("terminal_variance", mom.variance[0]),
    ] + _fpk_report_entries(sol.density_path)


def _run_compare(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model, grid = _model_1d(cfg, "compare")
        picard = _picard_config(cfg)
        n_t = _time_slices(cfg)
        m0 = _initial_density(model, grid)
    res = compare_brs_mfg(model, m0, grid, n_t, cfg=picard)
    res.write_csv(out / "compare.csv")
    res.brs_path.write_csv(out / "density_brs.csv")
    res.mfg.density_path.write_csv(out / "density_mfg.csv")
    return 0 if res.mfg.converged else 4, [
        ("max_w1", res.max_w1),
        ("terminal_w1", res.w1[-1]),
        ("mfg_converged", "yes" if res.mfg.converged else "no"),
    ]


def _run_chaos(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model, grid = _model_1d(cfg, "chaos-study")
        n_values = cfg.ints("chaos.n_values")
        if len(n_values) < 2 or min(n_values) < 2 or any(a >= b for a, b in zip(n_values, n_values[1:])):
            raise ConfigError(
                "key chaos.n_values: expected at least two particle counts, strictly increasing, "
                f"of at least two particles each, got {cfg.values['chaos.n_values']!r}"
            )
        seed0 = cfg.int_("chaos.seed0")
        if seed0 < 0:
            raise ConfigError(f"key chaos.seed0: expected a non-negative integer, got {seed0}")
        # the study sets each run's particle count and seed, and reads only its
        # final snapshot; the smallest count is checked here
        sim = _sim_config(cfg, model, n_values[0], seed0, record_every=sys.maxsize)
        try:
            sim.n_steps(exact=True)
        except ValueError as exc:
            raise ConfigError(f"key sim.dt: {exc}, not at sim.t_final={sim.t_final}") from exc
        fpk = _fpk_config(cfg, "fpk", sim.t_final)
        m0 = _initial_density(model, grid)
        seeds = [seed0 + k for k in range(cfg.int_("chaos.n_seeds"))]
        if not seeds:
            raise ConfigError("key chaos.n_seeds: the study needs at least one seed")
    reference = solve_fpk(model, m0, fpk)
    with _building():
        rows = propagation_of_chaos_study(model, sim, n_values, reference, seeds)
    write_csv(
        out / "chaos.csv",
        ["n_particles", "mean_w1", "std_w1"],
        [[r.n_particles, r.mean_w1, r.std_w1] for r in rows],
    )
    entries: list[tuple[str, object]] = [("n_seeds", len(seeds))]
    for r in rows:
        entries.append((f"mean_w1_n{r.n_particles}", r.mean_w1))
    if len(rows) >= 2 and rows[-1].mean_w1 > 0:
        entries.append(("w1_ratio_first_last", rows[0].mean_w1 / rows[-1].mean_w1))
    decreasing = all(a.mean_w1 > b.mean_w1 for a, b in zip(rows, rows[1:]))
    entries.append(("strictly_decreasing", "yes" if decreasing else "no"))
    return 0, entries + _fpk_report_entries(reference)


def _run_mpc_order(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model, grid = _model_1d(cfg, "mpc-order")
        res = mpc_reduction_check(model, grid, cfg.floats("mpc.dt_values"))
    res.write_csv(out / "orders.csv")
    entries: list[tuple[str, object]] = [("fitted_order", res.fitted_order)]
    for dt, err in res.rows:
        entries.append((f"sup_error_dt_{format_float(dt)}", err))
    return 0, entries


def _run_wealth(cfg: RunConfig, out: Path) -> Report:
    with _building():
        params = _wealth_params(cfg)
        model = build_wealth_model(params)
        grid = Grid(
            mins=(cfg.float_("wealth.ymin"), params.z_min),
            maxs=(cfg.float_("wealth.ymax"), cfg.float_("wealth.zmax")),
            cells=(_cells(cfg, "wealth.ycells"), _cells(cfg, "wealth.zcells")),
        )
        fpk = _fpk_config(cfg, "wealth", cfg.float_("wealth.t_final"))
        m0 = _initial_density(model, grid)
    path = solve_fpk(model, m0, fpk)
    path.write_csv(out / "density.csv", preamble=["preset=wealth"])
    mom = moments(path.final(0))
    return 0, [
        ("t_final", path.times[-1]),
        ("terminal_mean_y", mom.mean[0]),
        ("terminal_mean_z", mom.mean[1]),
        ("terminal_var_z", mom.variance[1]),
    ] + _fpk_report_entries(path)


def _run_crowd(cfg: RunConfig, out: Path) -> Report:
    with _building():
        params = _crowd_params(cfg, cfg.auto_float("crowd.t_final", 0.5))
        model = build_crowd_model(params)
        nc = _cells(cfg, "crowd.cells")
        grid = Grid(
            mins=(params.domain[0][0], params.domain[1][0]),
            maxs=(params.domain[0][1], params.domain[1][1]),
            cells=(nc, nc),
        )
        fpk = _fpk_config(cfg, "crowd", model.T)
        m0 = _initial_density(model, grid)
    path = solve_fpk(model, m0, fpk)
    path.write_csv(out / "density.csv", preamble=["preset=crowd"])
    vol = grid.cell_volume
    overlap0 = float(np.minimum(path.values[0, 0], path.values[0, 1]).sum() * vol)
    overlap1 = float(np.minimum(path.values[-1, 0], path.values[-1, 1]).sum() * vol)
    return 0, [
        ("t_final", path.times[-1]),
        ("overlap_initial", overlap0),
        ("overlap_final", overlap1),
    ] + _fpk_report_entries(path)


# subcommand -> (config defaults, runner)
SUBCOMMANDS: dict[str, tuple[dict[str, str], Callable[[RunConfig, Path], Report]]] = {
    "simulate": (
        {**_MODEL, **_RUN, **_WEALTH_MODEL, **_CROWD_MODEL, "crowd.bandwidth": "0.2", **_SIM, **_SIM_RUN},
        _run_simulate,
    ),
    "fpk": ({**_MODEL, **_RUN, **_GRID_1D, **_FPK_STEPPING, "fpk.t_final": "auto"}, _run_fpk),
    "mfg": ({**_MODEL, **_RUN, **_GRID_1D, **_MFG}, _run_mfg),
    "compare": ({**_MODEL, **_RUN, **_GRID_1D, **_MFG}, _run_compare),
    "chaos-study": (
        {
            **_MODEL,
            **_RUN,
            **_SIM,
            **_GRID_1D,
            **_FPK_STEPPING,
            "chaos.n_values": "250,1000,4000",
            "chaos.n_seeds": "20",
            "chaos.seed0": "0",
        },
        _run_chaos,
    ),
    "mpc-order": ({**_MODEL, **_RUN, **_GRID_1D, "mpc.dt_values": "0.1,0.05,0.025,0.0125"}, _run_mpc_order),
    "wealth": (
        {
            **_RUN,
            **_WEALTH_MODEL,
            "wealth.ymin": "-3.0",
            "wealth.ymax": "3.0",
            "wealth.ycells": "40",
            "wealth.zmax": "4.0",
            "wealth.zcells": "40",
            "wealth.t_final": "0.25",
            "wealth.n_records": "4",
            "wealth.cfl_safety": "0.9",
        },
        _run_wealth,
    ),
    "crowd": (
        {
            **_RUN,
            **_CROWD_MODEL,
            "crowd.cells": "48",
            "crowd.t_final": "auto",
            "crowd.n_records": "4",
            "crowd.cfl_safety": "0.9",
        },
        _run_crowd,
    ),
}


def run(subcommand: str, config_path: str | None, overrides: list[str], out_dir: str | None) -> int:
    """Execute one study; returns the process exit status.

    0 = success, 2 = config error, 3 = numerical failure,
    4 = completed with a non-convergence warning.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    cfg = resolve_config(subcommand, config_path, list(overrides))
    resolved_out = out_dir or cfg.str_("run.out") or os.environ.get(ENV_OUT) or "runs"
    out = Path(resolved_out)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, subcommand, cfg)
    code, entries = SUBCOMMANDS[subcommand][1](cfg, out)
    _write_report(out, entries)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="brsmfg",
        description="Best-reply-strategy and mean-field-game experiment runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or ./runs)")
    args = parser.parse_args(argv)
    try:
        return run(args.subcommand, args.config, args.overrides, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
