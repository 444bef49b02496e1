"""Self-test of the benchmark's output checks: each must pass a right output and fail a wrong one.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Synthetic outputs test the file-level
checks; the ``particles_loo`` oracle is tested on real CLI runs at N=100:
a leave-one-out run must match the rescaled full-empirical oracle, and a
plain full-empirical run (the wrong coupling) must not. Exits 1 if any
check passes a wrong output or fails a right one.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def expect(failures: list[str], name: str, problems: list[str], should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    verdict = "ok  " if ok else "FAIL"
    want = "rejects" if should_fail else "accepts"
    print(f"{verdict} {name}: check {want} it -> {problems or 'no problems'}")
    if not ok:
        failures.append(name)


def write_density(path: Path, values: np.ndarray, mins, widths) -> None:
    """Density CSV in the CLI's layout from values (K, P, cells...)."""
    d = values.ndim - 2
    cells = values.shape[2:]
    header = ["t", "pop"] + [f"i{k}" for k in range(d)] + [f"x{k}" for k in range(d)] + ["value"]
    lines = ["# preset=selftest", ",".join(header)]
    for k in range(values.shape[0]):
        for p in range(values.shape[1]):
            for idx in np.ndindex(*cells):
                mids = [mins[a] + (idx[a] + 0.5) * widths[a] for a in range(d)]
                row = [float(k), p, *idx, *mids, values[(k, p) + idx]]
                lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_report(out: Path, **entries) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text("".join(f"{k}={v}\n" for k, v in entries.items()))


def gaussian_1d(cells=40, lo=-4.0, hi=4.0):
    dx = (hi - lo) / cells
    x = lo + (np.arange(cells) + 0.5) * dx
    m = np.exp(-0.5 * x**2)
    return m / (m.sum() * dx), lo, dx


def test_compare(tmp: Path, failures: list[str]) -> None:
    m, lo, dx = gaussian_1d()
    good = np.stack([m, m, m])[:, None, :]
    for name, values in (
        ("good", good),
        ("mass drift 1e-8", good * np.array([1.0, 1.0, 1.0 + 1e-8])[:, None, None]),
        ("negative density -1e-12", np.where(np.arange(40) == 0, -1e-12, good)),
    ):
        out = tmp / f"compare-{name}"
        out.mkdir()
        for csv in ("density_brs.csv", "density_mfg.csv"):
            write_density(out / csv, good, (lo,), (dx,))
        write_density(out / "density_mfg.csv", values, (lo,), (dx,))
        expect(failures, f"compare_1d {name}", wl.check_compare(out, None), should_fail=name != "good")


def test_wealth(tmp: Path, failures: list[str]) -> None:
    base = dict(mass_drift_max="2.2e-16", min_density="0", terminal_mean_y="3.1e-16")
    for name, change in (
        ("good", {}),
        ("terminal_mean_y 1e-9", {"terminal_mean_y": "1e-09"}),
        ("mass drift 1e-9", {"mass_drift_max": "1e-09"}),
        ("min density -1e-12", {"min_density": "-1e-12"}),
    ):
        out = tmp / f"wealth-{name}"
        write_report(out, **{**base, **change})
        expect(failures, f"wealth_2d {name}", wl.check_wealth(out, None), should_fail=name != "good")


def test_chaos(tmp: Path, failures: list[str]) -> None:
    base = dict(strictly_decreasing="yes", w1_ratio_first_last="3.9")
    for name, change in (
        ("good", {}),
        ("not decreasing", {"strictly_decreasing": "no"}),
        ("ratio 1.5", {"w1_ratio_first_last": "1.5"}),
    ):
        out = tmp / f"chaos-{name}"
        write_report(out, **{**base, **change})
        expect(failures, f"chaos_full {name}", wl.check_chaos(out, None), should_fail=name != "good")


def test_crowd(tmp: Path, failures: list[str]) -> None:
    cells, lo, hi = 12, -2.0, 2.0
    dx = (hi - lo) / cells
    x = lo + (np.arange(cells) + 0.5) * dx
    X, Y = np.meshgrid(x, x, indexing="ij")

    def blob(cx):
        m = np.exp(-((X - cx) ** 2 + Y**2) / 0.5)
        return m / (m.sum() * dx * dx)

    good = np.stack([np.stack([blob(-0.5), blob(0.5)])] * 3)
    shifted = good.copy()
    shifted[-1, 1] = blob(0.6)
    report = dict(mass_drift_max="2.2e-16", min_density="0")
    for name, values in (("good", good), ("population 1 not mirrored", shifted)):
        out = tmp / f"crowd-{name}"
        write_report(out, **report)
        write_density(out / "density.csv", values, (lo, lo), (dx, dx))
        expect(failures, f"crowd_2d {name}", wl.check_crowd(out, None), should_fail=name != "good")


def test_particles_loo(tmp: Path, failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import brsmfg.cli as cli

    n = 100
    common = ["model.preset=mean_coupling", "sim.t_final=0.1", f"sim.n_particles={n}", "sim.seed=3"]
    oracle = tmp / "loo-oracle"
    cli.run("simulate", None, common + ["sim.coupling=full_empirical",
                                        f"model.coupling_strength={n / (n - 1)!r}"], str(oracle))
    for name, coupling in (("leave-one-out run", "leave_one_out"), ("full-empirical run", "full_empirical")):
        out = tmp / f"loo-{coupling}"
        cli.run("simulate", None, common + [f"sim.coupling={coupling}"], str(out))
        expect(failures, f"particles_loo {name}", wl.check_particles_loo(out, oracle),
               should_fail=coupling == "full_empirical")


def main() -> int:
    failures: list[str] = []
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_selftest_", dir=ROOT))
    try:
        for test in (test_compare, test_wealth, test_chaos, test_crowd, test_particles_loo):
            test(tmp, failures)
    finally:
        shutil.rmtree(tmp)
    if failures:
        print(f"{len(failures)} self-test(s) failed: {failures}")
        return 1
    print("all output checks pass right outputs and reject wrong ones")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
