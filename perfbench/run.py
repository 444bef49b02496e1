"""brsmfg benchmark: run one workload (or all) for a fixed time and report its metrics.

    python3 perfbench/run.py --workload compare_1d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the ops import ``brsmfg`` from its
``src/``. Each op is one CLI call in a fresh interpreter, one at a time, with
``run.workers=1`` and OpenBLAS at its default thread count. With ``--trace 0``
the ops are untraced and the run reports the end-to-end metrics; with
``--trace 1`` untraced and traced ops alternate and the run reports the
per-layer split and the tracing overhead. Every op's outputs are checked.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
metrics ``BENCHMARK.json`` lists for the mode). Exits 2 without a result when
the checkout has no ``src/brsmfg``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload, read_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# an invocation must end within 180 s; ops are not started past this point
HARD_LIMIT_S = 150.0
# thread-count variables removed from the ops' environment so OpenBLAS uses its default
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS")
# subcommands whose report.txt n_steps is the step count of their FPK solve
FPK_REPORT_STEPS = ("crowd", "wealth", "chaos-study")
# What op.calibrate() takes on the reference host (README.md) when it is quiet. Reported
# times are seconds at that host speed: raw seconds x CALIBRATION_REF_S / the op's own
# calibration time, measured in its process just before and just after the solve.
CALIBRATION_REF_S = 0.17
TIME_UNITS = ("s", "us", "ns")


@dataclass
class Op:
    traced: bool
    wall_s: float
    result: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    output_bytes: int = 0
    n_steps: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def host_factor(self) -> float:
        """Factor from this op's raw seconds to seconds at the reference host speed."""
        return CALIBRATION_REF_S / statistics.mean(self.result["calibration_s"])


def _digest(out: Path) -> tuple[str, int]:
    """Hash of every output file's name and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        total += len(data)
    return h.hexdigest(), total


def run_op(w: Workload, seed: int, k: int, traced: bool, describe_env: bool, timeout: float) -> Op:
    opdir = WORK / f"{w.name}-{k}"
    opdir.mkdir(parents=True)
    out, oracle = opdir / "out", opdir / "oracle"
    oracle_cli = w.oracle_cli(seed)
    spec = {
        "src": str(SRC),
        "subcommand": w.subcommand,
        "overrides": w.cli_overrides(seed) + ["run.workers=1"],
        "out": str(out),
        "oracle_overrides": None if oracle_cli is None else oracle_cli + ["run.workers=1"],
        "oracle_out": str(oracle),
        "trace": traced,
        "describe_env": describe_env,
        "result": str(opdir / "result.json"),
    }
    (opdir / "spec.json").write_text(json.dumps(spec))
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARS}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), str(opdir / "spec.json"), repr(spawned)],
            env=env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        op = Op(traced, time.monotonic() - spawned, problems=[f"op timed out after {timeout:.0f} s"])
        shutil.rmtree(opdir)
        return op
    op = Op(traced, time.monotonic() - spawned)
    result_path = opdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        op.problems.append(f"op process exited {proc.returncode}: {tail[0]}")
        shutil.rmtree(opdir)
        return op
    op.result = json.loads(result_path.read_text())
    op.problems += _verify(w, op.result, out, oracle)
    if out.exists():
        op.digest, op.output_bytes = _digest(out)
        if w.subcommand in FPK_REPORT_STEPS and (out / "report.txt").exists():
            op.n_steps = read_report(out).get("n_steps")
    shutil.rmtree(opdir)
    return op


def _verify(w: Workload, result: dict, out: Path, oracle: Path) -> list[str]:
    if not Path(result["brsmfg_file"]).resolve().is_relative_to(SRC.resolve()):
        return [f"brsmfg imported from {result['brsmfg_file']}, not from {SRC}"]
    if "error" in result:
        return [result["error"]]
    if result["exit_code"] != 0:
        return [f"cli.run returned exit code {result['exit_code']}"]
    if w.oracle_overrides and result.get("oracle_exit_code") != 0:
        return [f"oracle run returned exit code {result.get('oracle_exit_code')}"]
    try:
        return w.check(out, oracle if w.oracle_overrides else None)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output check could not read the outputs: {type(exc).__name__}: {exc}"]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> list[Op]:
    """Ops of one workload, started while the next one is expected to end within ``seconds``."""
    start = time.monotonic()
    deadline = start + seconds
    if trace:
        # at least one untraced op for the overhead and two traced ops for the count check
        kinds = itertools.chain([False, True, True], itertools.cycle([False, True]))
        min_ops = 3
    else:
        kinds = itertools.repeat(False)
        min_ops = 1
    ops: list[Op] = []
    for k, traced in enumerate(kinds):
        now = time.monotonic()
        if now - start > HARD_LIMIT_S:
            break
        if len(ops) >= min_ops:
            same = [op.wall_s for op in ops if op.traced == traced] or [op.wall_s for op in ops]
            if now + statistics.median(same) > deadline:
                break
        timeout = max(10.0, HARD_LIMIT_S + 20.0 - (now - start))
        ops.append(run_op(w, seed, k, traced, describe_env=(k == 0), timeout=timeout))
    return ops


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _ratio(num, den, scale):
    return None if not den else num / den * scale


def layer_metrics(trace: dict, output_bytes: int, host_factor: float) -> dict[str, tuple[object, str]]:
    """Per-layer metrics of one traced op: name -> (value, unit), times host-corrected.

    The value is ``"absent"`` when none of the span's boundaries exist in the
    library, and None where it is undefined (a ratio over zero work, or an
    extremum over no calls).
    """
    out: dict[str, tuple[object, str]] = {}

    def span(prefix: str, name: str, items):
        s = trace["spans"].get(name)
        for metric, unit, get in items:
            out[f"{prefix}{metric}"] = ("absent" if s is None else get(s), unit)

    def count(key):
        return lambda s: s["counts"].get(key, 0)

    def extremum(key):
        return lambda s: s["counts"].get(key) if s["calls"] else None

    span("fokker_planck.", "fokker_planck.solve", [
        ("solve_s", "s", lambda s: s["total_s"]),
        ("self_s", "s", lambda s: s["self_s"]),
        ("calls", "count", lambda s: s["calls"]),
        ("steps", "count", count("steps")),
        ("self_us_per_step", "us", lambda s: _ratio(s["self_s"], s["counts"].get("steps", 0), 1e6)),
        ("mass_drift_max", "1", extremum("mass_drift_max")),
        ("min_density", "1", extremum("min_density")),
    ])
    for name, has_points in (
        ("model.brs_drift", True),
        ("model.cost_grad", True),
        ("measures.density_grad", True),
        ("measures.moments", False),
        ("measures.leave_one_out", False),
        ("measures.w1", False),
        ("brs.control", True),
    ):
        items = [("_s", "s", lambda s: s["total_s"]), ("_calls", "count", lambda s: s["calls"])]
        if has_points:
            items.append(("_points", "count", count("points")))
        span(name, name, items)
    span("applications.", "model.cost_grad", [("pairwise_pairs", "count", count("pairwise_pairs"))])
    span("particle_sim.", "particle_sim.simulate", [
        ("simulate_s", "s", lambda s: s["total_s"]),
        ("self_s", "s", lambda s: s["self_s"]),
        ("runs", "count", count("runs")),
        ("particle_steps", "count", count("particle_steps")),
        ("self_ns_per_particle_step", "ns",
         lambda s: _ratio(s["self_s"], s["counts"].get("particle_steps", 0), 1e9)),
    ])
    span("mfg.", "mfg.picard", [
        ("picard_s", "s", lambda s: s["total_s"]),
        ("picard_iters", "count", count("iters")),
        ("residual_last", "1", extremum("residual_last")),
    ])
    span("mfg.", "mfg.hjb", [
        ("hjb_s", "s", lambda s: s["total_s"]),
        ("hjb_self_s", "s", lambda s: s["self_s"]),
        ("hjb_calls", "count", lambda s: s["calls"]),
    ])
    span("cli.", "cli.write", [
        ("write_s", "s", lambda s: s["total_s"]),
        ("csv_rows", "count", count("rows")),
    ])
    out["cli.output_bytes"] = (output_bytes, "count")
    for name, (value, unit) in out.items():
        if unit in TIME_UNITS and isinstance(value, float):
            out[name] = (value * host_factor, unit)
    return out


@dataclass
class Summary:
    attempted: int
    failed: int
    # flags make the run incorrect (counts that drift); notes do not (a boundary that is gone)
    flags: list[str]
    notes: list[str]
    metrics: dict[str, tuple[object, str]]
    samples: dict[str, int]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.flags


def _corrected(w: Workload, metric: str) -> bool:
    """Setup times are host-corrected always; solve and layer times where the calibration tracks them."""
    return metric == "setup_s" or (metric == "solve_s" and w.host_corrected)


def _correction(w: Workload, op: Op, metric: str) -> float:
    return op.host_factor if _corrected(w, metric) else 1.0


def summarize(w: Workload, ops: list[Op], trace: bool) -> Summary:
    flags, notes = [], []
    reference = next((op.digest for op in ops if op.digest), None)
    for i, op in enumerate(ops):
        if op.digest and op.digest != reference:
            kind = "traced" if op.traced else "untraced"
            op.problems.append(f"{kind} op {i + 1}: output files differ from op 1's")
    measured = [op for op in ops if "solve_s" in op.result]
    plain = [op for op in measured if not op.traced]
    metrics: dict[str, tuple[object, str]] = {}
    samples: dict[str, int] = {}
    for name, unit in END_TO_END:
        values = [op.result[name] * _correction(w, op, name) for op in plain]
        metrics[name] = (statistics.median(values) if values else None, unit)
        samples[name] = len(values)
    if trace:
        traced = [op for op in measured if op.traced and "trace" in op.result]
        per_op = [layer_metrics(op.result["trace"], op.output_bytes, _correction(w, op, "solve_s")) for op in traced]
        absent = sorted({b for op in traced for b in op.result["trace"]["absent"]})
        notes += [f"boundary absent: {b}" for b in absent]
        for op in traced:
            bad = {n: s["hook_errors"] for n, s in op.result["trace"]["spans"].items() if s["hook_errors"]}
            if bad:
                notes.append(f"count hooks failed (signature or result changed): {bad}")
        if per_op:
            for name, (_, unit) in per_op[0].items():
                values = [m[name][0] for m in per_op]
                if unit == "count" or any(isinstance(v, str) or v is None for v in values):
                    if len(set(map(repr, values))) > 1:
                        flags.append(f"count drift: {name} = {values}")
                    metrics[name] = (values[0], unit)
                else:
                    metrics[name] = (statistics.median(values), unit)
                samples[name] = len(values)
            traced_solve = statistics.median(op.result["solve_s"] * _correction(w, op, "solve_s") for op in traced)
            plain_solve = metrics["solve_s"][0]
            metrics["trace.overhead_frac"] = (traced_solve / plain_solve - 1.0 if plain_solve else None, "1")
            samples["trace.overhead_frac"] = len(traced)
    return Summary(len(ops), sum(op.failed for op in ops), flags, notes, metrics, samples)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _machine() -> str:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches.append(f"L{level} {size}")
    return f"nproc={os.cpu_count()}, cpu={model}, caches per core/socket: {', '.join(caches)}"


def print_workload(w: Workload, seed: int, ops: list[Op], summary: Summary, trace: bool, wall: float) -> None:
    seed_note = f"{w.seed_key}={seed}" if w.seed_key else "not used (PDE workload, no random input)"
    command = " ".join(["brsmfg", w.subcommand] + [f"--set {o}" for o in w.cli_overrides(seed)])
    print(f"== {w.name}: {command}")
    print(f"   seed {seed}: {seed_note}; {len(ops)} ops in {wall:.1f} s; trace={int(trace)}")
    env = next((op.result["environment"] for op in ops if "environment" in op.result), None)
    if env:
        print(f"   env: {_machine()}")
        print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
              f"{env['openblas']['config']}, threads={env['openblas']['threads']}")
    steps = sorted({op.n_steps for op in ops if op.n_steps is not None})
    plain = [op for op in ops if not op.traced and "solve_s" in op.result]
    for name, unit in END_TO_END:
        value = summary.metrics[name][0]
        line = f"   {name:<14} {_fmt(value):>12} {unit:<5} median of {summary.samples[name]}"
        raw = [op.result[name] for op in plain]
        if raw and _corrected(w, name):
            line += (f", host-corrected; raw median {_fmt(statistics.median(raw))}"
                     f" (min {_fmt(min(raw))}, max {_fmt(max(raw))})")
        elif raw:
            note = ", not host-corrected" if unit in TIME_UNITS else ""
            line += f"{note} (min {_fmt(min(raw))}, max {_fmt(max(raw))})"
        if name == "solve_s" and steps:
            line += f"  [fokker_planck.steps: {', '.join(steps)}]"
        print(line)
    if plain:
        cal = statistics.median(statistics.mean(op.result["calibration_s"]) for op in plain)
        print(f"   {'calibration':<14} {_fmt(cal):>12} s     median of {len(plain)} (reference {CALIBRATION_REF_S} s)")
    frac = summary.failed / summary.attempted if summary.attempted else float("nan")
    print(f"   {'fail_frac':<14} {_fmt(frac):>12} {'1':<5} {summary.failed} of {summary.attempted} ops failed")
    problems = sorted({p for op in ops for p in op.problems})
    for p in problems:
        print(f"   FAILED CHECK: {p}")
    if not problems:
        print("   output check: ok on every op")
    if trace:
        print("   per-layer split (median over traced ops; counts must repeat exactly):")
        for name, (value, unit) in summary.metrics.items():
            if name in dict(END_TO_END):
                continue
            print(f"     {name:<40} {_fmt(value):>14} {unit}")
    for flag in summary.flags:
        print(f"   FLAG: {flag}")
    for note in summary.notes:
        print(f"   note: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "brsmfg" / "cli.py").is_file():
        print(f"error: no brsmfg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    results = []
    try:
        for name in names:
            w = WORKLOADS[name]
            t0 = time.monotonic()
            ops = run_workload(w, args.seed, args.seconds, bool(args.trace))
            summary = summarize(w, ops, bool(args.trace))
            print_workload(w, args.seed, ops, summary, bool(args.trace), time.monotonic() - t0)
            results.append((name, summary))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for name, summary in results:
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, unit in reported.items():
            value = summary.metrics.get(metric, ("absent", unit))[0]
            # absent or undefined per-layer values are reported as 0 here and marked in the lines above
            metrics[prefix + metric] = {"value": value if isinstance(value, (int, float)) else 0, "unit": unit}
    print(json.dumps({
        "correct": all(s.correct for _, s in results),
        "attempted": sum(s.attempted for _, s in results),
        "failed": sum(s.failed for _, s in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
