"""Layered benchmark for neumannlab's solver subcommands.

    python3 perfbench/run.py --workload multistart-cold --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12

Each run drives ``neumannlab.cli.run(..., output_dir=<tmp>)`` in process,
the path a user takes: config resolution, grid build, factorization,
multistart descent, diagnostics and CSV/JSON/manifest writing.  The load
is a closed loop with one client: the workload's subcommand calls run
one after another, and the whole workload repeats until ``--seconds``
have passed (at least once).  ``--seed`` becomes the config ``seed``.
BLAS and OpenMP are pinned to one thread; no workload asks for more
multistart threads than the process may use.

``--trace 0`` reports the end-to-end metrics: the median workload wall
time, set-up time, peak RSS, mean level, largest Euler-Lagrange residual
and the share of operations that succeeded.  ``--trace 1`` repeats the
workload untraced for half the time, then traced (``tracer.py``) for the
rest, and reports per-layer counts and times per workload repetition
plus the tracing overhead; the spans go to ``perfbench/traces/``.  A
``.s`` metric is inclusive span time and ``.self_s`` span time minus
child spans; both are summed over the multistart threads, so on a
2-thread workload they can exceed the wall time.  The tracing overhead
compares single repetitions and is within run-to-run noise.
Every run ends with the output gate (``gate.py``) on everything written.

``--workload all`` runs every workload, untraced and traced, each in a
fresh process, and prints all metrics.  The last stdout line is always
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
TRACE_ROOT = HERE / "traces"

BASE_CONFIG = {"N": 5, "R": 1.0, "a": 1.0, "stretch": 4.0, "max_iters": 500,
               "grad_tol": 1e-4, "tau": 0.01}
THRESHOLD_ALPHAS = tuple(2.0 + 0.25 * k for k in range(7))
SUBCRITICAL_ALPHAS = tuple(0.25 * k for k in range(1, 9))
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
# Residuals below this are round-off of a critical field, not convergence
# error; they are reported as the floor so that a reordered sum cannot
# read as a regression.  It sits six decades under grad_tol.
EL_RESIDUAL_FLOOR = 1e-10


@dataclass(frozen=True)
class Step:
    subcommand: str
    overrides: tuple        # (key, value) pairs on top of BASE_CONFIG
    threads: int


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                  # grid nodes per axis
    steps: tuple
    expect_boundary: bool = False
    expect_constant: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # five cold starts (one seeded random) descend ~500 iterations each;
        # the descent kernel is nearly all of the time.  Two threads, not one:
        # spreading the starts over both CPUs averages the co-tenant
        # contention of two cores, which at one thread left wall_s too
        # unsteady across runs to hold any bound.
        Workload("multistart-cold", 128,
                 (Step("minimize", (("alpha", 3.5), ("n_starts", 5)), 2),),
                 expect_boundary=True),
        # warm-started sweep and bisection across the threshold on one
        # factorization, 2 threads, instanton fits at every alpha
        Workload("continuation-threshold", 96,
                 (Step("sweep", (("alpha_list", THRESHOLD_ALPHAS), ("n_starts", 4)), 2),
                  Step("alpha0", (("alpha_list", THRESHOLD_ALPHAS), ("n_starts", 4)), 2))),
        # the constant solution wins in a few iterations; factorization,
        # 65,536-row snapshots and residuals are most of the time
        Workload("fine-grid-output", 256,
                 (Step("sweep", (("alpha_list", SUBCRITICAL_ALPHAS), ("n_starts", 1)), 1),),
                 expect_constant=True),
    )
}

E2E = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("level_mean", "1"),
    ("el_residual_max", "1"),
    ("ok_frac", "ratio"),
)

# (metric, unit, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("domain_grid.norms.calls", "count", "wall_s on multistart-cold"),
    ("domain_grid.norms.self_s", "s", "wall_s on multistart-cold"),
    ("domain_grid.norm_gradients.calls", "count", "wall_s on multistart-cold"),
    ("domain_grid.norm_gradients.self_s", "s", "wall_s on multistart-cold"),
    ("domain_grid.power_masses.self_s", "s", "wall_s on multistart-cold"),
    # computed from array sizes: per Gauss point, the interpolant plus one power per exponent
    ("domain_grid.power_masses.computed_mb", "MB", "wall_s on multistart-cold"),
    ("domain_grid.build_grid.s", "s", "setup_s on fine-grid-output"),
    ("domain_grid.energy_operator.s", "s", "setup_s on fine-grid-output"),
    ("domain_grid.interpolate_instanton.calls", "count", "wall_s on continuation-threshold"),
    ("domain_grid.interpolate_instanton.s", "s", "wall_s on continuation-threshold"),
    ("domain_grid.save_field_snapshot.s", "s", "wall_s on fine-grid-output"),
    ("solver.factorize.calls", "count", "wall_s and setup_s on fine-grid-output"),
    ("solver.factorize.s", "s", "wall_s and setup_s on fine-grid-output"),
    ("solver.qsolve.calls", "count", "wall_s on multistart-cold"),
    ("solver.qsolve.s", "s", "wall_s on multistart-cold"),
    ("solver.gradient_I.calls", "count", "wall_s on multistart-cold"),
    ("solver.gradient_I.self_s", "s", "wall_s on multistart-cold"),
    ("solver.descent_iters", "count", "wall_s on multistart-cold and continuation-threshold"),
    # norms calls made by the descent loop itself: line-search trials plus two per start
    ("solver.line_search_trials", "count", "wall_s on multistart-cold"),
    # line_search_trials over its base, solver.gradient_I.calls
    ("solver.norms_per_grad", "trials/iter", "wall_s on multistart-cold"),
    ("solver.starts", "count", "wall_s on continuation-threshold"),
    ("solver.solves", "count", "wall_s on continuation-threshold"),
    ("solver.fit_instanton.calls", "count", "wall_s on continuation-threshold"),
    ("solver.fit_instanton.s", "s", "wall_s on continuation-threshold"),
    ("solver.euler_lagrange_residual.s", "s", "wall_s on fine-grid-output"),
    ("nehari.big_I.calls", "count", "wall_s on multistart-cold"),
    ("instanton.u_value.calls", "count", "wall_s on continuation-threshold"),
    ("instanton.u_value.s", "s", "wall_s on continuation-threshold"),
    ("constants.snapshot.s", "s", "wall_s on fine-grid-output"),
    ("constants.I_alpha_of_one.calls", "count", "wall_s on continuation-threshold"),
    ("cli.run.minimize.s", "s", "wall_s on multistart-cold"),
    ("cli.run.sweep.s", "s", "wall_s on continuation-threshold and fine-grid-output"),
    ("cli.run.alpha0.s", "s", "wall_s on continuation-threshold"),
    ("cli.write.s", "s", "wall_s on fine-grid-output"),
    ("cli.bytes_written", "B", "wall_s on fine-grid-output"),
    ("trace_overhead_frac", "ratio", "traced over untraced wall_s, minus 1"),
)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def step_config(workload: Workload, step: Step, seed: int) -> dict:
    cfg = dict(BASE_CONFIG, n_r=workload.n, n_theta=workload.n, seed=seed)
    cfg.update(step.overrides)
    return cfg


# -- provenance ------------------------------------------------------------

def _git_commit():
    """HEAD read from .git without running git; None outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


# -- measurement -------------------------------------------------------------

def measure_setup(workload: Workload):
    """Median of build_grid + energy_operator + splu over at least
    SETUP_MIN_REPEATS repeats and SETUP_MIN_SECONDS; also returns a Q^{-1}
    solve on the workload grid for the gate's residuals."""
    from scipy.sparse.linalg import splu

    from neumannlab.domain_grid import build_grid, energy_operator

    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        grid = build_grid(BASE_CONFIG["N"], BASE_CONFIG["R"], workload.n, workload.n,
                          BASE_CONFIG["stretch"])
        lu = splu(energy_operator(grid, BASE_CONFIG["a"]).tocsc())
        times.append(time.perf_counter() - t0)

    def solve_q(arr):
        return lu.solve(arr.ravel()).reshape(arr.shape)

    return statistics.median(times), solve_q


@dataclass
class Repetition:
    wall_s: float
    outcomes: list          # (step, cfg, out_dir, exit code or None, error or None)
    traced: bool


def run_workload_once(workload: Workload, seed: int, out_root: str, tracer) -> Repetition:
    from neumannlab import cli

    outcomes = []
    wall = 0.0
    for k, step in enumerate(workload.steps):
        cfg = step_config(workload, step, seed)
        out_dir = os.path.join(out_root, f"{k}-{step.subcommand}")
        threads = min(step.threads, usable_cpus())
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with tracer.span(f"cli.run.{step.subcommand}"), redirect_stdout(io.StringIO()):
                code = cli.run(step.subcommand, output_dir=out_dir, overrides=cfg,
                               seed=seed, threads=threads)
        except Exception as exc:  # a crash is a failed operation, never a harness crash
            error = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        outcomes.append((step, cfg, out_dir, code, error))
    return Repetition(wall, outcomes, tracer.active)


def install_tracing(tracer) -> None:
    """Wrap each layer's public names where their callers look them up."""
    from neumannlab import cli, domain_grid, solver

    class TracedLU:
        """splu result whose solve is a traced Q^{-1} solve."""

        def __init__(self, lu):
            self._lu = lu
            self.solve = tracer.wrap("solver.qsolve", lu.solve)

        def __getattr__(self, attr):
            return getattr(self._lu, attr)

    def power_mass_bytes(args, _):
        grid, values, qs = args[0], args[1], args[2]
        cells = (values.shape[0] - 1) * (values.shape[1] - 1)
        return len(grid.subcell_w) * cells * values.itemsize * (1 + len(qs))

    for owner, attr, name, kw in (
        (solver, "norms", "domain_grid.norms", {}),
        (solver, "norm_gradients", "domain_grid.norm_gradients", {}),
        (getattr(domain_grid, "AxiGrid", None), "power_masses", "domain_grid.power_masses",
         {"payload": power_mass_bytes}),
        (cli, "build_grid", "domain_grid.build_grid", {}),
        (solver, "energy_operator", "domain_grid.energy_operator", {}),
        (solver, "interpolate_instanton", "domain_grid.interpolate_instanton", {}),
        (cli, "save_field_snapshot", "domain_grid.save_field_snapshot", {}),
        (solver, "splu", "solver.factorize", {"result": TracedLU}),
        (solver, "gradient_I", "solver.gradient_I", {}),
        (solver, "_descend", "solver.descend", {"payload": lambda args, out: out[2]}),
        (solver, "_minimize_over_starts", "solver.solve", {}),
        (solver, "fit_instanton", "solver.fit_instanton", {}),
        (solver, "euler_lagrange_residual", "solver.euler_lagrange_residual", {}),
        (solver, "big_I", "nehari.big_I", {}),
        (domain_grid, "u_value", "instanton.u_value", {}),
        (cli, "snapshot", "constants.snapshot", {}),
        (solver, "I_alpha_of_one", "constants.I_alpha_of_one", {}),
        (cli, "_write_csv", "cli.write", {}),
        (cli, "_write_json", "cli.write", {}),
    ):
        tracer.install(owner, attr, name, **kw)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(path)
        for f in files
    )


def layer_metrics(tracer, reps: int, bytes_written: float, overhead: float) -> dict:
    """Per-layer numbers per workload repetition from the traced spans."""
    rows = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "payload": 0.0}

    def get(span: str, key: str) -> float:
        return rows.get(span, zero)[key] / reps

    grads = rows.get("solver.gradient_I", zero)["calls"]
    trials = tracer.count_children("domain_grid.norms", "solver.descend")
    values = {
        "domain_grid.power_masses.computed_mb": get("domain_grid.power_masses", "payload") / 1e6,
        "solver.factorize.calls": get("solver.factorize", "calls"),
        "solver.factorize.s": get("solver.factorize", "s"),
        "solver.descent_iters": get("solver.descend", "payload"),
        "solver.line_search_trials": trials / reps,
        "solver.norms_per_grad": trials / grads if grads else 0.0,
        "solver.starts": get("solver.descend", "calls"),
        "solver.solves": get("solver.solve", "calls"),
        "cli.write.s": get("cli.write", "s") + get("domain_grid.save_field_snapshot", "s"),
        "cli.bytes_written": bytes_written,
        "trace_overhead_frac": overhead,
    }
    for metric, _, _ in PER_LAYER:
        if metric in values:
            continue
        span, _, key = metric.rpartition(".")
        values[metric] = get(span, key)
    return values


# -- the run -----------------------------------------------------------------

def _import_program():
    """Import neumannlab from this checkout's src/, or exit 2."""
    if not (SRC / "neumannlab" / "__init__.py").is_file():
        print(f"error: no neumannlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import neumannlab

    if Path(neumannlab.__file__).resolve().parent != SRC / "neumannlab":
        print(f"error: imported neumannlab from {neumannlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure(workload: Workload, seed: int, seconds: float, traced: bool, work_dir: str,
            trace_path=None) -> dict:
    """Run one workload for ``seconds``, gate its outputs, return the result."""
    from gate import check_step
    from tracer import Tracer

    tracer = Tracer()
    reps = []
    deadline_untraced = seconds / 2 if traced else seconds
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < deadline_untraced:
        reps.append(run_workload_once(workload, seed, os.path.join(work_dir, f"rep{len(reps)}"),
                                      tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bytes_written = 0
    if traced:
        install_tracing(tracer)
        tracer.active = True
        try:
            while not any(r.traced for r in reps) or time.perf_counter() - t_start < seconds:
                out_root = os.path.join(work_dir, f"rep{len(reps)}")
                reps.append(run_workload_once(workload, seed, out_root, tracer))
                bytes_written += _dir_bytes(out_root)
        finally:
            tracer.active = False
            tracer.uninstall()
    # after the workload, so that its repeated factorizations stay out of peak_rss_mb
    setup_s, solve_q = measure_setup(workload)

    ops, violations, levels, residuals = [], [], [], []
    for rep in reps:
        for step, cfg, out_dir, code, error in rep.outcomes:
            check = check_step(step.subcommand, cfg, out_dir, code, error, solve_q,
                               expect_boundary=workload.expect_boundary,
                               expect_constant=workload.expect_constant)
            ops += check.ops
            violations += check.violations
            levels += check.levels
            residuals += check.residuals

    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    untraced_wall = statistics.median(r.wall_s for r in reps if not r.traced)
    if traced:
        n_traced = sum(r.traced for r in reps)
        traced_wall = statistics.median(r.wall_s for r in reps if r.traced)
        values = layer_metrics(tracer, n_traced, bytes_written / n_traced,
                               traced_wall / untraced_wall - 1.0)
        units = {m: u for m, u, _ in PER_LAYER}
        if trace_path is not None:
            tracer.dump(trace_path)
    else:
        values = {
            "wall_s": untraced_wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "level_mean": statistics.fmean(levels) if levels else float("nan"),
            "el_residual_max": max(residuals + [EL_RESIDUAL_FLOOR]),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
        units = dict(E2E)
    return {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "_ops": ops,
        "_violations": violations,
        "_absent": tracer.absent,
        "_reps": len(reps),
    }


def report(result: dict, prov: dict) -> None:
    """Human lines first, then the one-line JSON result."""
    moves = {m: why for m, _, why in PER_LAYER}
    for name, m in result["metrics"].items():
        hint = f"  -> {moves[name]}" if name in moves else ""
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}{hint}")
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(fail_frac {fail_frac:.6g}) over {result['_reps']} workload repetition(s)")
    for op in result["_ops"]:
        if not op.ok:
            print(f"FAILED {op.label}: {'; '.join(op.reasons)}")
    for v in result["_violations"]:
        print(f"GATE {v}")
    if result["_absent"]:
        print("absent (traced names no longer in the program): " + ", ".join(result["_absent"]))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            res = json.loads(lines[-1])
            correct &= res["correct"]
            if trace == 0:
                attempted += res["attempted"]
                failed += res["failed"]
            for metric, val in res["metrics"].items():
                metrics[f"{name}.{metric}"] = val
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    trace_path = None
    if args.trace:
        TRACE_ROOT.mkdir(exist_ok=True)
        trace_path = str(TRACE_ROOT / f"{workload.name}-seed{args.seed}.jsonl")
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work_dir,
                         trace_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report(result, provenance(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
