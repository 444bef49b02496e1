"""Benchmark workloads: the CLI call one operation makes and the check of its outputs.

One operation (op) is ``brsmfg.cli.run(subcommand, None, overrides, out)`` of a
workload's fixed config. Every check reads only the files that call wrote
(plus, for ``particles_loo``, an oracle run written next to them) and returns
the list of problems it found; an empty list means the op's outputs are
correct. Tolerances hold for any correct integrator; no check compares bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# criterion 6 of the acceptance suite (conservation and positivity)
MASS_DRIFT_MAX = 1e-10
MIN_DENSITY = -1e-13
# |terminal_mean_y| of the wealth run: zero by the y-symmetry of law and kernel
WEALTH_MEAN_Y_MAX = 1e-12
# leave-one-out at strength s against full-empirical at s*N/(N-1): equal up to round-off
LOO_ORACLE_MAX = 1e-10
# criterion 4 (propagation of chaos): W1 ratio between the smallest and largest N
CHAOS_RATIO_MIN = 2.0
# criterion 7's mirror-symmetry bound on the L1 gap
MIRROR_L1_MAX = 1e-3

# particles_loo: N and the coupling strength s (the CLI defaults, pinned for the oracle)
LOO_PARTICLES = 1000
LOO_STRENGTH = 1.0


def read_report(out: Path) -> dict[str, str]:
    """``report.txt`` as a key -> string value dict."""
    report = {}
    for line in (out / "report.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        report[key] = value
    return report


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """(header, numeric rows) of a CLI CSV; ``#`` preamble lines are skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return header, data


def read_density(path: Path) -> tuple[np.ndarray, float]:
    """Density CSV (``t,pop,i...,x...,value``) as values (K, P, cells...) and the cell volume."""
    header, data = read_csv(path)
    d = sum(1 for h in header if h.startswith("i"))
    idx = data[:, 2 : 2 + d].astype(int)
    mids = data[:, 2 + d : 2 + 2 * d]
    cells = tuple(int(idx[:, k].max()) + 1 for k in range(d))
    n_pop = int(data[:, 1].max()) + 1
    values = data[:, -1].reshape(-1, n_pop, *cells)
    vol = 1.0
    for k in range(d):
        vol *= (mids[:, k].max() - mids[:, k].min()) / (cells[k] - 1)
    return values, vol


def _conservation(values: np.ndarray, vol: float, label: str) -> list[str]:
    """Criterion 6 recomputed from recorded densities."""
    mass = values.reshape(values.shape[0], values.shape[1], -1).sum(axis=2) * vol
    drift = float(np.abs(mass - mass[0]).max())
    low = float(values.min())
    problems = []
    if not drift <= MASS_DRIFT_MAX:
        problems.append(f"{label}: mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    if not low >= MIN_DENSITY:
        problems.append(f"{label}: min density {low:.3e} < {MIN_DENSITY:g}")
    return problems


def _reported_conservation(report: dict[str, str]) -> list[str]:
    drift = float(report["mass_drift_max"])
    low = float(report["min_density"])
    problems = []
    if not drift <= MASS_DRIFT_MAX:
        problems.append(f"report: mass_drift_max {drift:.3e} > {MASS_DRIFT_MAX:g}")
    if not low >= MIN_DENSITY:
        problems.append(f"report: min_density {low:.3e} < {MIN_DENSITY:g}")
    return problems


def check_compare(out: Path, oracle: Path | None) -> list[str]:
    problems = []
    for name in ("density_brs.csv", "density_mfg.csv"):
        values, vol = read_density(out / name)
        problems += _conservation(values, vol, name)
    return problems


def check_wealth(out: Path, oracle: Path | None) -> list[str]:
    report = read_report(out)
    problems = _reported_conservation(report)
    mean_y = float(report["terminal_mean_y"])
    if not abs(mean_y) <= WEALTH_MEAN_Y_MAX:
        problems.append(f"|terminal_mean_y| {abs(mean_y):.3e} > {WEALTH_MEAN_Y_MAX:g}")
    return problems


def check_particles_loo(out: Path, oracle: Path | None) -> list[str]:
    _, got = read_csv(out / "particles_final.csv")
    _, want = read_csv(oracle / "particles_final.csv")
    if got.shape != want.shape:
        return [f"particles_final.csv shape {got.shape} != oracle {want.shape}"]
    gap = float(np.abs(got[:, 2:-1] - want[:, 2:-1]).max())
    if not gap <= LOO_ORACLE_MAX:
        return [f"leave-one-out vs rescaled full-empirical oracle: max gap {gap:.3e} > {LOO_ORACLE_MAX:g}"]
    return []


def check_chaos(out: Path, oracle: Path | None) -> list[str]:
    report = read_report(out)
    problems = []
    if report.get("strictly_decreasing") != "yes":
        problems.append(f"strictly_decreasing={report.get('strictly_decreasing')}")
    ratio = float(report.get("w1_ratio_first_last", "nan"))
    if not ratio >= CHAOS_RATIO_MIN:
        problems.append(f"w1_ratio_first_last {ratio:.4g} < {CHAOS_RATIO_MIN:g}")
    return problems


def mirror_gap(values: np.ndarray, vol: float) -> float:
    """Largest L1 gap over records between population 1 and population 0 mirrored in x."""
    flipped = values[:, 0, ::-1, :]
    return float(np.abs(values[:, 1] - flipped).sum(axis=(1, 2)).max() * vol)


def check_crowd(out: Path, oracle: Path | None) -> list[str]:
    problems = _reported_conservation(read_report(out))
    values, vol = read_density(out / "density.csv")
    gap = mirror_gap(values, vol)
    if not gap <= MIRROR_L1_MAX:
        problems.append(f"mirror L1 gap {gap:.3e} > {MIRROR_L1_MAX:g}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    overrides: tuple[str, ...]
    # config key that receives the benchmark seed; None when the run has no random input
    seed_key: str | None
    check: Callable[[Path, Path | None], list[str]]
    # overrides of a second, untimed run whose outputs the check compares against
    oracle_overrides: tuple[str, ...] = ()
    # whether the host calibration tracks this solve's speed (see run.py); it does not
    # for a solve bound by two-thread BLAS on arrays larger than L2
    host_corrected: bool = True

    def _seeded(self, overrides: tuple[str, ...], seed: int) -> list[str]:
        return list(overrides) + ([f"{self.seed_key}={seed}"] if self.seed_key else [])

    def cli_overrides(self, seed: int) -> list[str]:
        return self._seeded(self.overrides, seed)

    def oracle_cli(self, seed: int) -> list[str] | None:
        return self._seeded(self.oracle_overrides, seed) if self.oracle_overrides else None


_LOO_COMMON = (
    "model.preset=mean_coupling",
    "sim.t_final=0.1",
    f"sim.n_particles={LOO_PARTICLES}",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # only workload that runs mfg (HJB sweeps, Picard); its three 1-d FPK solves
        # (3744 explicit steps) show per-step overhead; 400 cells, KiB working set
        Workload(
            name="compare_1d",
            subcommand="compare",
            overrides=("model.preset=mean_coupling",),
            seed_key=None,
            check=check_compare,
        ),
        # 2-d two-population FPK dominated by grid interpolation (measures._multilinear
        # via density_gradient_at) and CSV output; 48x48 cells
        Workload(
            name="crowd_2d",
            subcommand="crowd",
            overrides=(),
            seed_key=None,
            check=check_crowd,
        ),
        # pairwise trading kernel, ~10 live 1640x1600 float64 temporaries (21 MB each,
        # above L2, below L3); the only memory-heavy workload
        Workload(
            name="wealth_2d",
            subcommand="wealth",
            overrides=("wealth.t_final=0.05",),
            seed_key=None,
            check=check_wealth,
            host_corrected=False,
        ),
        # per-particle leave-one-out loop: 100k leave_one_out copies and 100k
        # control_batch calls (N=1000, 100 steps, 8 KB state)
        Workload(
            name="particles_loo",
            subcommand="simulate",
            overrides=_LOO_COMMON
            + ("sim.coupling=leave_one_out", f"model.coupling_strength={LOO_STRENGTH!r}"),
            seed_key="sim.seed",
            check=check_particles_loo,
            oracle_overrides=_LOO_COMMON
            + (
                "sim.coupling=full_empirical",
                f"model.coupling_strength={LOO_STRENGTH * LOO_PARTICLES / (LOO_PARTICLES - 1)!r}",
            ),
        ),
        # vectorised full-empirical particle path (N up to 4000, bypasses
        # leave-one-out), 1-d FPK reference and W1; 24 runs x 1000 steps
        Workload(
            name="chaos_full",
            subcommand="chaos-study",
            overrides=("model.preset=mean_coupling", "chaos.n_seeds=8"),
            seed_key="chaos.seed0",
            check=check_chaos,
        ),
    )
}
