"""Benchmark of ``oscflag verify``: one client, one verification at a time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ruled-extension --seed 0 \\
        --seconds 40 --trace 0

Each workload is a fixed list of catalog configs, the acceptance configs of
``tests/test_acceptance.py``.  A pass runs ``run_verification`` once per
config, in a closed loop in this process, with the library's module-level
caches cleared first so a pass holds no state a fresh ``oscflag verify``
would not have.  ``--seed`` orders the configs of a pass and draws the jet
micro-case inputs; it does not change the verification inputs (see
README.md for why).

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters importing oscflag and building each entry), the median pass
wall time and the peak memory.  ``--trace 1`` runs two untraced passes (the
first as warm-up), one pass with every layer wrapped from outside
(layers.py) and the jet micro-cases (jetcases.py), and reports the
per-layer metrics.  Metric names
and units come from BENCHMARK.json.

Every verification is checked: it fails if it raises, reports findings,
differs from the run's other repetitions of the same config once timings
are stripped, or disagrees with the stored discrete fields (snapshot.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One verification at a time uses one core.  A second OpenBLAS thread only
# spin-waits (it doubled CPU time without shortening wall time on a 2-core
# box) and makes the wall time depend on load on the other core.  Set before
# numpy loads; inherited by the set-up interpreters; reported in machine info.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5        # at least this many fresh interpreters ...
SETUP_SECONDS = 4.0      # ... and more while the set-up phase is shorter
STAGES = ("sampling_s", "nu_s_s", "ruledness_s", "extensions_s",
          "expectations_s", "universal_s")


@dataclass(frozen=True)
class Config:
    entry: str
    params: dict
    samples: int
    seed: int

    def run_config(self):
        from oscflag.verify import RunConfig
        return RunConfig(self.entry, dict(self.params), samples=self.samples,
                         seed=self.seed)


# Why each workload, and which layers it stresses:
# - ruled-extension: most of the wall is the extension stage, where
#   SplittingSpec.at / gamma_tensor stencils and 4-variable chart
#   evaluations dominate; chart evaluations are mostly at distinct points.
# - curve-transport: CurveSystem.field_taylor (Picard iteration in
#   1-variable jets) takes about half the time, and about half of the chart
#   evaluations repeat a point, so a cache or a closed-form transport shows.
# - pointwise: the rest of the catalog with no extension stage (the
#   extension layers must show zero calls); sampling, the nu_s table, the
#   universal checks, 8-variable order-3 charts and curve-product's RK4
#   entry build, which is where set-up cost shows.
WORKLOADS = {
    "ruled-extension": (Config("section4-ruled", {"m": 2}, 20, 7),),
    "curve-transport": (Config("curve-parallel", {}, 5, 3),),
    "pointwise": (Config("sphere", {"n": 2}, 5, 3),
                  Config("flat", {}, 4, 3),
                  Config("product-torus", {}, 4, 3),
                  Config("holomorphic-curve", {"m": 2}, 5, 3),
                  Config("curve-product", {}, 4, 3)),
}

SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from oscflag.catalog import get_entry
for name, params in json.loads(sys.argv[2]):
    get_entry(name, params)
print(time.perf_counter() - start)
"""


def import_program():
    if not (SRC / "oscflag" / "__init__.py").is_file():
        sys.exit(f"error: no oscflag sources under {SRC}; run from the root "
                 "of an oscflag checkout")
    sys.path.insert(0, str(SRC))
    import oscflag  # noqa: F401


def clear_program_caches():
    """Empty the library's functools caches, as a fresh process has them."""
    from layers import program_modules
    for module in program_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def blas_info() -> dict:
    """OpenBLAS version string and thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"blas": config().decode(), "blas_threads": threads(),
                        "blas_library": Path(path).name}
    return {"blas": "unknown", "blas_threads": None, "blas_library": None}


def machine_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            **blas_info()}


def measure_setup(configs) -> list[float]:
    """Seconds to import oscflag and build every entry, in fresh interpreters."""
    spec = json.dumps([[c.entry, c.params] for c in configs])
    samples = []
    start = time.perf_counter()
    while (len(samples) < SETUP_SAMPLES
           or time.perf_counter() - start < SETUP_SECONDS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                               spec], capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Gate:
    """Correctness of every verification of the run."""

    def __init__(self):
        from snapshot import load_snapshot
        self.snapshot = load_snapshot()
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str):
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def check(self, config: Config, report) -> None:
        from snapshot import discrete_fields
        self.attempted += 1
        stripped = report.to_json(include_timings=False)
        if report.findings:
            checks = ", ".join(f["check"] for f in report.findings)
            self.fail(f"{config.entry}: findings in {checks}")
        elif self.first.setdefault(config.entry, stripped) != stripped:
            self.fail(f"{config.entry}: report differs from an earlier "
                      "repetition of the same config")
        elif (discrete_fields(json.loads(stripped))
              != self.snapshot.get(config.entry)):
            self.fail(f"{config.entry}: discrete fields differ from "
                      "perfbench/expected.json")

    def run(self, config: Config):
        """One verification; its report, or None if it raised."""
        from oscflag import verify
        try:
            report = verify.run_verification(config.run_config())
        except Exception:
            self.attempted += 1
            traceback.print_exc()
            self.fail(f"{config.entry}: raised")
            return None
        return report


def run_pass(configs, gate: Gate) -> tuple[float, list]:
    """Wall seconds of one pass over the configs, and the reports."""
    clear_program_caches()
    wall = 0.0
    reports = []
    for config in configs:
        start = time.perf_counter()
        report = gate.run(config)
        wall += time.perf_counter() - start
        if report is not None:
            gate.check(config, report)
            reports.append(report)
    return wall, reports


def end_to_end(configs, seconds: float, gate: Gate) -> dict:
    setup = measure_setup(configs)
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) <= seconds):
        walls.append(run_pass(configs, gate)[0])
    print(f"verify_s: median of {len(walls)} passes {walls}; setup_s: "
          f"median of {len(setup)} interpreters {setup}")
    return {"setup_s": statistics.median(setup),
            "verify_s": statistics.median(walls),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def worst_headroom(reports) -> float:
    """Largest residual/tolerance over upper-bound verdicts.

    A verdict is an upper bound when its pass/fail agrees with
    ``residual < tolerance``; lower-bound verdicts (a quantity that must stay
    away from zero) are left out.
    """
    worst = 0.0
    for report in reports:
        for v in report.verdicts:
            res, tol = v["residual"], v["tolerance"]
            if res is None or not tol or v["passed"] != (res < tol):
                continue
            worst = max(worst, res / tol)
    return worst


def per_layer(configs, seed: int, gate: Gate) -> dict:
    from jetcases import run_jet_cases
    from layers import Tracer, layer_targets

    run_pass(configs, gate)   # a process's first pass runs slower: warm-up
    plain_wall, reports = run_pass(configs, gate)
    metrics = {f"verify.{stage}": sum(r.timings[stage] for r in reports)
               for stage in STAGES}
    metrics["checks.worst_headroom"] = worst_headroom(reports)

    tracer = Tracer()
    tracer.install(layer_targets(tracer))
    try:
        traced_wall, _ = run_pass(configs, gate)
    finally:
        tracer.restore()
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = stat.calls
        metrics[f"{name}.self_s"] = stat.self_s
        metrics[f"{name}.total_s"] = stat.total_s
        if stat.keys is not None:
            metrics[f"{name}.distinct_ratio"] = stat.distinct_ratio
    metrics["verify.unattributed_s"] = \
        tracer.stats["verify.run_verification"].self_s
    metrics["trace.verify_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall

    jet_metrics, jet_errors = run_jet_cases(seed)
    metrics.update(jet_metrics)
    gate.attempted += len(jet_metrics)
    for error in jet_errors:
        gate.fail(error)

    metrics["code.src_lines"] = sum(
        len(path.read_text().splitlines())
        for path in sorted((SRC / "oscflag").glob("*.py")))
    metrics["verify.fail_ratio"] = len(gate.failures) / gate.attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("machine:", json.dumps(machine_info(), sort_keys=True))

    import numpy as np
    configs = WORKLOADS[args.workload]
    order = np.random.default_rng(args.seed).permutation(len(configs))
    configs = [configs[i] for i in order]

    gate = Gate()
    if args.trace:
        measured = per_layer(configs, args.seed, gate)
    else:
        measured = end_to_end(configs, args.seconds, gate)

    metrics = {}
    for m in listed:
        value = measured.get(m["name"])
        if value is None:
            print(f"warning: {m['name']} not measured on this workload; "
                  "reported as 0", file=sys.stderr)
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not gate.failures,
                      "attempted": gate.attempted,
                      "failed": len(gate.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
