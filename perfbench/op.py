"""One benchmark operation in a fresh interpreter: ``python3 op.py SPEC.json SPAWNED``.

The parent writes the spec and passes as SPAWNED the ``time.monotonic()`` it
read just before starting this process; setup time runs from there until
``brsmfg.cli`` is imported, on the same system-wide monotonic clock. Then the op
times one ``cli.run`` call between two runs of :func:`calibrate`, reads the
process's peak RSS, optionally runs an untimed oracle config for the output
check, and writes its measurements as JSON to the spec's ``result`` path.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _openblas() -> dict:
    """Version string and thread count of the OpenBLAS mapped into this process."""
    import ctypes

    maps = Path("/proc/self/maps").read_text().splitlines()
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"config": config().decode(), "threads": threads()}
    return {"config": "not found", "threads": None}


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
    }


def calibrate() -> float:
    """Seconds one fixed mix of interpreter and small-array numpy work takes now.

    The host's speed drifts by tens of percent over minutes; the same work
    timed in the op's own process, just before and just after the solve,
    measures that drift so the harness can take it out of the op's times.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 2048)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(5000):
        acc += float(np.exp(-0.5 * (x - 1e-3 * k) ** 2).sum())
        acc += sum(i * i for i in range(300)) * 1e-12
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spawned = float(sys.argv[2])
    src = spec["src"]
    sys.path.insert(0, src)
    import brsmfg.cli as cli

    ready = time.monotonic()
    result = {"setup_s": ready - spawned, "brsmfg_file": cli.__file__}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cal_before = calibrate()
    t0 = time.perf_counter()
    try:
        result["exit_code"] = cli.run(spec["subcommand"], None, spec["overrides"], spec["out"])
    except Exception as exc:  # any failure of the op is recorded and counted, not fatal
        result["exit_code"] = None
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["solve_s"] = time.perf_counter() - t0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"] = [cal_before, calibrate()]
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()

    if spec["oracle_overrides"] is not None and result["exit_code"] == 0:
        try:
            result["oracle_exit_code"] = cli.run(spec["subcommand"], None, spec["oracle_overrides"], spec["oracle_out"])
        except Exception as exc:  # reported as a failed check by the parent
            result["oracle_exit_code"] = None
            result["error"] = f"oracle {type(exc).__name__}: {exc}"
    if spec["describe_env"]:
        result["environment"] = _environment()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
