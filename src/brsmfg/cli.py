"""Configuration-driven experiment runner.

Every solver and study is exposed as a subcommand reading a flat ``key=value``
config file (dotted prefixes act as sections) plus repeatable ``--set``
overrides. Each key is one row of its subcommand's table, and every value is
checked against its row before a run starts. Each run writes ``manifest.txt``
(the fully resolved config, itself a valid config file for byte-identical
re-runs), ``report.txt`` with headline metrics, and the data CSVs of the
module interfaces. All numeric output uses 17 significant digits and no
timestamps, so identical configs produce identical bytes. Runs are headless
and offline.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from .fokker_planck import BOUNDARIES, MIN_CELLS, FpkConfig, NumericalError, solve_fpk
from .measures import Grid, format_float, format_value, moments, write_csv, write_empirical_csv
from .mfg import PicardConfig, compare_brs_mfg, mpc_reduction_check, solve_mfg_picard
from .model import ModelSpec, coupling_measure
from .particle_sim import COUPLINGS, SimConfig, propagation_of_chaos_study, simulate_brs_nplayer
from .presets import lq_model, mean_coupling_model, ou_model

__all__ = ["ConfigError", "RunConfig", "run", "main"]

ENV_OUT = "BRSMFG_OUT"


class ConfigError(Exception):
    """Bad config file, unknown key, or unusable value."""


# each kind of value, as a rejection names it; ``choice`` lists its words and ``path`` takes any text
_KINDS = {
    "number": "a finite number",
    "integer": "an integer",
    "auto": "auto or a finite number",
    "numbers": "at least two comma-separated finite numbers",
    "integers": "at least two comma-separated integers",
    "pair": "two comma-separated finite numbers",
}
# the comparisons of the fields above, at_least and at_most, in that order
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


@dataclass(frozen=True)
class Key:
    """One config key: its default text, its kind, and the bound its value meets.

    Numbers are finite. ``above``, ``at_least`` and ``at_most`` bound a number
    or each entry of a list; ``order`` asks a list to increase (1) or decrease
    (-1) strictly.
    """

    default: str
    kind: str = "number"
    above: float | None = None
    at_least: float | None = None
    at_most: float | None = None
    order: int = 0
    choices: tuple[str, ...] = ()

    def parse(self, key: str, text: str):
        """The value of ``text``; one that does not parse or misses the bound is a config error naming ``key``.

        Numbers parse with ``float`` and integers with ``int``; a list skips empty tokens.
        """
        if self.kind == "path" or text in self.choices:
            return text
        if self.kind == "auto" and text.strip().lower() == "auto":
            return None
        scalar = int if self.kind in ("integer", "integers") else float
        many = self.kind in ("numbers", "integers", "pair")
        try:
            entries = [scalar(tok) for tok in text.split(",") if tok.strip()] if many else [scalar(text)]
        except ValueError:
            entries = []
        bounds = [(op, b) for op, b in zip(_BOUNDS, (self.above, self.at_least, self.at_most)) if b is not None]
        # a list takes at least two entries, a pair exactly two
        if (
            self.kind != "choice"
            and (len(entries) == 2 if self.kind == "pair" else len(entries) >= 1 + many)
            and all((scalar is int or math.isfinite(v)) and all(_BOUNDS[op](v, b) for op, b in bounds) for v in entries)
            and not (self.order and min(self.order * (b - a) for a, b in zip(entries, entries[1:])) <= 0)
        ):
            return tuple(entries) if self.kind == "pair" else entries if many else entries[0]
        kind = "one of " + ", ".join(self.choices) if self.kind == "choice" else _KINDS[self.kind]
        expected = kind + " and".join(f" {op} {b:g}" for op, b in bounds)
        if self.order:
            expected += ", strictly increasing" if self.order > 0 else ", strictly decreasing"
        raise ConfigError(f"key {key}: expected {expected}, got {text!r}")


# one row per key; each bound is the one its config object or builder sets
_MODEL = {
    "model.preset": Key("ou", "choice", choices=("ou", "lq", "mean_coupling")),
    "model.T": Key("auto", "auto", above=0),
    "model.sigma": Key("1.0", at_least=0),
    "model.alpha": Key("1.0", above=0),
    "model.init_var": Key("0.25", above=0),
    "model.coupling_strength": Key("1.0"),
}

_RUN = {
    # changes nothing; kept because the benchmark harness passes run.workers=1
    "run.workers": Key("1", "integer", at_least=1),
    "run.out": Key("", "path"),
}

_WEALTH_MODEL = {
    "wealth.kappa": Key("0.05", above=0),
    "wealth.psi_width": Key("1.0", above=0),
    "wealth.z_min": Key("1e-6", above=0),
    "wealth.y_std": Key("1.0", at_least=0),
    "wealth.z_log_mean": Key("0.0"),
    "wealth.z_log_std": Key("0.3", at_least=0),
}

_CROWD_MODEL = {
    "crowd.lam": Key("1.0", at_least=0),
    "crowd.sigma": Key("0.2", at_least=0),
    "crowd.psi_weight": Key("1.0"),
    "crowd.xmin": Key("-2.0"),
    "crowd.xmax": Key("2.0"),
    "crowd.ymin": Key("-2.0"),
    "crowd.ymax": Key("2.0"),
    "crowd.center1": Key("-0.5,0.0", "pair"),
    "crowd.center2": Key("0.5,0.0", "pair"),
    "crowd.target1": Key("1.0,0.0", "pair"),
    "crowd.target2": Key("-1.0,0.0", "pair"),
    "crowd.ic_std": Key("0.5", at_least=0),
}

_SIM = {
    "sim.dt": Key("0.001", above=0),
    "sim.t_final": Key("auto", "auto", above=0),
    "sim.coupling": Key("full_empirical", "choice", choices=COUPLINGS),
}

# a particle run takes every preset, and the KDE bandwidth of the crowd cost on particles
_PARTICLE_MODEL = {
    "model.preset": Key("ou", "choice", choices=("ou", "lq", "mean_coupling", "wealth", "crowd")),
    "crowd.bandwidth": Key("0.2", above=0),
}

# one particle run's size, seed and snapshots; chaos-study sets the size and
# seed per run and reads only the final snapshot
_SIM_RUN = {
    "sim.n_particles": Key("1000", "integer", at_least=2),
    "sim.seed": Key("0", "integer", at_least=0),
    "sim.record_every": Key("100", "integer", at_least=1),
}

# the grid of every one-dimensional subcommand
_GRID_1D = {
    "fpk.xmin": Key("-6.0"),
    "fpk.xmax": Key("6.0"),
    "fpk.cells": Key("400", "integer", at_least=MIN_CELLS),
}

# the time stepping of a forward solve to the run's horizon; the MFG solvers
# step on their own
_FPK_STEPPING = {
    "fpk.cfl_safety": Key("0.9", above=0, at_most=1),
    "fpk.n_records": Key("8", "integer", at_least=1),
    "fpk.boundary": Key("no_flux", "choice", choices=BOUNDARIES),
}

_MFG = {
    "mfg.n_t": Key("16", "integer", at_least=1),
    "mfg.max_iters": Key("50", "integer", at_least=1),
    "mfg.damping": Key("0.5", above=0, at_most=1),
    "mfg.tol": Key("1e-4", above=0),
}

# grid axes whose bounds are two keys
_AXES = (
    ("fpk.xmin", "fpk.xmax"), ("wealth.ymin", "wealth.ymax"), ("wealth.z_min", "wealth.zmax"),
    ("crowd.xmin", "crowd.xmax"), ("crowd.ymin", "crowd.ymax"),
)


class RunConfig:
    """Resolved flat configuration: each key's text, and its value parsed and checked against its row."""

    def __init__(self, rows: dict[str, Key], text: dict[str, str]):
        self.text = dict(text)
        self.values = {key: rows[key].parse(key, raw) for key, raw in self.text.items()}
        for lo, hi in _AXES:
            if hi in self.values and not self.values[lo] < self.values[hi]:
                a, b = self.values[lo], self.values[hi]
                raise ConfigError(f"keys {lo} and {hi}: grid axis needs min < max, got [{a}, {b}]")

    def __getitem__(self, key: str):
        return self.values[key]

    def lines(self) -> list[str]:
        return [f"{k}={self.text[k]}" for k in sorted(self.text)]


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
    rows = SUBCOMMANDS[subcommand][0]
    text = {key: row.default for key, row in rows.items()}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        for key, val in _parse_config_text(source, str(path)).items():
            if key not in rows:
                raise ConfigError(f"unknown config key: {key}")
            text[key] = val
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in rows:
            raise ConfigError(f"unknown config key: {key}")
        text[key] = val.strip()
    return RunConfig(rows, text)


@contextmanager
def _building():
    """A value that a config object rejects (``ValueError``) is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _auto(value: float | None, default: float) -> float:
    """An ``auto``-or-number key's value: ``default`` when it is ``auto``."""
    return default if value is None else value


def _model(cfg: RunConfig) -> ModelSpec:
    preset, T = cfg["model.preset"], cfg["model.T"]
    if preset == "wealth":
        model = build_wealth_model(_wealth_params(cfg))
        return model.with_horizon(_auto(T, model.T))
    if preset == "crowd":
        params = _crowd_params(cfg, _auto(T, 0.5))
        # only particle runs read the KDE bandwidth; the grid solvers use the density itself
        return build_crowd_model(replace(params, kde_bandwidth=cfg["crowd.bandwidth"]))
    common = dict(sigma=cfg["model.sigma"], init_var=cfg["model.init_var"], alpha=cfg["model.alpha"])
    if preset == "ou":
        return ou_model(T=_auto(T, 8.0), **common)
    if preset == "lq":
        return lq_model(T=_auto(T, 1.0), **common)
    return mean_coupling_model(T=_auto(T, 1.0), strength=cfg["model.coupling_strength"], **common)


def _wealth_params(cfg: RunConfig) -> WealthParams:
    # each key of the wealth model is its field, prefixed
    return WealthParams(**{key.partition(".")[2]: cfg[key] for key in _WEALTH_MODEL})


def _crowd_params(cfg: RunConfig, T: float) -> CrowdParams:
    s = cfg["crowd.sigma"]
    return CrowdParams(
        lam=cfg["crowd.lam"],
        sigma=(s, s),
        domain=((cfg["crowd.xmin"], cfg["crowd.xmax"]), (cfg["crowd.ymin"], cfg["crowd.ymax"])),
        horizon=T,
        psi_weight=cfg["crowd.psi_weight"],
        targets=(cfg["crowd.target1"], cfg["crowd.target2"]),
        ic_centers=(cfg["crowd.center1"], cfg["crowd.center2"]),
        ic_std=cfg["crowd.ic_std"],
    )


def _model_1d(cfg: RunConfig) -> tuple[ModelSpec, Grid]:
    """The model and its ``fpk.*`` grid, for the one-dimensional subcommands."""
    grid = Grid(mins=(cfg["fpk.xmin"],), maxs=(cfg["fpk.xmax"],), cells=(cfg["fpk.cells"],))
    return _model(cfg), grid


def _initial_density(model: ModelSpec, grid: Grid):
    return coupling_measure(
        tuple(model.population(p).initial_law.grid_density(grid) for p in range(model.n_populations))
    )


def _fpk_config(cfg: RunConfig, section: str, t_final: float) -> FpkConfig:
    """The ``<section>.*`` time-stepping keys; a section without a boundary key has no-flux walls."""
    return FpkConfig(
        t_final=t_final,
        cfl_safety=cfg[f"{section}.cfl_safety"],
        boundary=cfg.values.get(f"{section}.boundary", "no_flux"),
        record_times=tuple(np.linspace(0.0, t_final, cfg[f"{section}.n_records"] + 1)),
    )


def _picard_config(cfg: RunConfig) -> PicardConfig:
    return PicardConfig(max_iters=cfg["mfg.max_iters"], damping=cfg["mfg.damping"], tol=cfg["mfg.tol"])


def _sim_config(cfg: RunConfig, model: ModelSpec, n_particles: int, seed: int, record_every: int) -> SimConfig:
    """The ``sim.*`` keys as a particle run; a window wider than the horizon names ``sim.dt``."""
    t_final = _auto(cfg["sim.t_final"], model.T)
    sim = SimConfig(cfg["sim.dt"], t_final, n_particles, seed, record_every, cfg["sim.coupling"])
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
        sim = _sim_config(cfg, model, cfg["sim.n_particles"], cfg["sim.seed"], cfg["sim.record_every"])
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
        model, grid = _model_1d(cfg)
        fpk = _fpk_config(cfg, "fpk", _auto(cfg["fpk.t_final"], model.T))
        m0 = _initial_density(model, grid)
    path = solve_fpk(model, m0, fpk)
    path.write_csv(out / "density.csv", preamble=[f"preset={cfg['model.preset']}"])
    mom = moments(path.final(0))
    return 0, [
        ("t_final", path.times[-1]),
        ("terminal_mean", mom.mean[0]),
        ("terminal_variance", mom.variance[0]),
    ] + _fpk_report_entries(path)


def _run_mfg(cfg: RunConfig, out: Path) -> Report:
    with _building():
        model, grid = _model_1d(cfg)
        picard = _picard_config(cfg)
        m0 = _initial_density(model, grid)
    sol = solve_mfg_picard(model, m0, grid, cfg["mfg.n_t"], cfg=picard)
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
        model, grid = _model_1d(cfg)
        picard = _picard_config(cfg)
        m0 = _initial_density(model, grid)
    res = compare_brs_mfg(model, m0, grid, cfg["mfg.n_t"], cfg=picard)
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
        model, grid = _model_1d(cfg)
        n_values, seed0 = cfg["chaos.n_values"], cfg["chaos.seed0"]
        # the study sets each run's particle count and seed, and reads only its
        # final snapshot
        sim = _sim_config(cfg, model, n_values[0], seed0, record_every=sys.maxsize)
        try:
            sim.n_steps(exact=True)
        except ValueError as exc:
            raise ConfigError(f"key sim.dt: {exc}, not at sim.t_final={sim.t_final}") from exc
        fpk = _fpk_config(cfg, "fpk", sim.t_final)
        m0 = _initial_density(model, grid)
        seeds = [seed0 + k for k in range(cfg["chaos.n_seeds"])]
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
        model, grid = _model_1d(cfg)
        res = mpc_reduction_check(model, grid, cfg["mpc.dt_values"])
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
            mins=(cfg["wealth.ymin"], params.z_min),
            maxs=(cfg["wealth.ymax"], cfg["wealth.zmax"]),
            cells=(cfg["wealth.ycells"], cfg["wealth.zcells"]),
        )
        fpk = _fpk_config(cfg, "wealth", cfg["wealth.t_final"])
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
        params = _crowd_params(cfg, _auto(cfg["crowd.t_final"], 0.5))
        model = build_crowd_model(params)
        nc = cfg["crowd.cells"]
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


# subcommand -> (key table, runner)
SUBCOMMANDS: dict[str, tuple[dict[str, Key], Callable[[RunConfig, Path], Report]]] = {
    "simulate": (
        {**_MODEL, **_RUN, **_WEALTH_MODEL, **_CROWD_MODEL, **_SIM, **_SIM_RUN, **_PARTICLE_MODEL},
        _run_simulate,
    ),
    "fpk": ({**_MODEL, **_RUN, **_GRID_1D, **_FPK_STEPPING, "fpk.t_final": Key("auto", "auto", above=0)}, _run_fpk),
    "mfg": ({**_MODEL, **_RUN, **_GRID_1D, **_MFG}, _run_mfg),
    "compare": ({**_MODEL, **_RUN, **_GRID_1D, **_MFG}, _run_compare),
    "chaos-study": (
        {
            **_MODEL,
            **_RUN,
            **_SIM,
            **_GRID_1D,
            **_FPK_STEPPING,
            "chaos.n_values": Key("250,1000,4000", "integers", at_least=2, order=1),
            "chaos.n_seeds": Key("20", "integer", at_least=1),
            "chaos.seed0": Key("0", "integer", at_least=0),
        },
        _run_chaos,
    ),
    "mpc-order": (
        {**_MODEL, **_RUN, **_GRID_1D, "mpc.dt_values": Key("0.1,0.05,0.025,0.0125", "numbers", above=0, order=-1)},
        _run_mpc_order,
    ),
    "wealth": (
        {
            **_RUN,
            **_WEALTH_MODEL,
            "wealth.ymin": Key("-3.0"),
            "wealth.ymax": Key("3.0"),
            "wealth.ycells": Key("40", "integer", at_least=MIN_CELLS),
            "wealth.zmax": Key("4.0"),
            "wealth.zcells": Key("40", "integer", at_least=MIN_CELLS),
            "wealth.t_final": Key("0.25", above=0),
            "wealth.n_records": Key("4", "integer", at_least=1),
            "wealth.cfl_safety": Key("0.9", above=0, at_most=1),
        },
        _run_wealth,
    ),
    "crowd": (
        {
            **_RUN,
            **_CROWD_MODEL,
            "crowd.cells": Key("48", "integer", at_least=MIN_CELLS),
            "crowd.t_final": Key("auto", "auto", above=0),
            "crowd.n_records": Key("4", "integer", at_least=1),
            "crowd.cfl_safety": Key("0.9", above=0, at_most=1),
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
    resolved_out = out_dir or cfg["run.out"] or os.environ.get(ENV_OUT) or "runs"
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
