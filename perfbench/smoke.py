"""Fast self-check of the benchmark harness on 32 x 32 grids.

    python3 perfbench/smoke.py

Runs every workload shape untraced and traced through the same code the
benchmark uses, then three negative cases: a snapshot tampered after the
run must fail the gate, a sweep that crashes (the ``TypeError`` that
``cli._run_sweep`` raises on a monotone violation) must count every row
as failed without stopping the harness, and a traced name the program no
longer has must be reported absent.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace

import run

run._import_program()

from neumannlab import cli, solver  # noqa: E402
from gate import check_step  # noqa: E402
from tracer import Tracer  # noqa: E402

SMOKE_N = 32
run.SETUP_MIN_REPEATS, run.SETUP_MIN_SECONDS = 1, 0.0


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke FAILED: {message}")


def shape_checks(work: str) -> None:
    for name, full in run.WORKLOADS.items():
        workload = replace(full, n=SMOKE_N)
        n_ops = sum(len(dict(s.overrides)["alpha_list"]) if s.subcommand == "sweep" else 1
                    for s in workload.steps)
        for traced in (False, True):
            res = run.measure(workload, 7, 0.0, traced, tempfile.mkdtemp(dir=work))
            metrics = run.PER_LAYER if traced else run.E2E
            names = [m[0] for m in metrics]
            expect(list(res["metrics"]) == names, f"{name}: metric names {list(res['metrics'])}")
            expect(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                   f"{name}: non-finite metric in {res['metrics']}")
            expect(res["attempted"] == n_ops * res["_reps"],
                   f"{name}: {res['attempted']} operations, want {n_ops} per repetition")
            expect(not res["_absent"], f"{name}: absent names {res['_absent']}")
            expect(res["correct"], f"{name}: gate violations {res['_violations']}")
            if traced:
                calls = res["metrics"]["solver.gradient_I.calls"]["value"]
                expect(calls > 0, f"{name}: traced run saw no gradient_I calls")
            print(f"ok  {name} traced={traced}: {res['attempted']} ops, {res['failed']} failed")


def tampered_snapshot(work: str) -> None:
    workload = replace(run.WORKLOADS["fine-grid-output"], n=SMOKE_N)
    step = workload.steps[0]
    cfg = run.step_config(workload, step, 0)
    out = os.path.join(work, "tamper")
    with redirect_stdout(io.StringIO()):
        code = cli.run("sweep", output_dir=out, overrides=cfg, seed=0, threads=1)
    _, solve_q = run.measure_setup(workload)
    clean = check_step("sweep", cfg, out, code, None, solve_q, expect_constant=True)
    expect(not clean.violations, f"clean sweep flagged: {clean.violations}")
    path = os.path.join(out, "field_002.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    r, theta, value = lines[len(lines) // 2].split(",")
    lines[len(lines) // 2] = f"{r},{theta},{float(value) * 1.5!r}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    bad = check_step("sweep", cfg, out, code, None, solve_q, expect_constant=True)
    expect(len(bad.violations) == 1 and "field_002" in bad.violations[0],
           f"tampered snapshot not caught: {bad.violations}")
    expect([op.ok for op in bad.ops].count(False) == 1, "tampered row not counted failed")
    print("ok  tampered snapshot fails the gate")


def crashing_sweep(work: str) -> None:
    workload = replace(run.WORKLOADS["fine-grid-output"], n=SMOKE_N)
    real = cli.sweep_alpha

    def violating(*args, **kwargs):
        return replace(real(*args, **kwargs), monotone_violations=(1,))

    cli.sweep_alpha = violating
    try:
        rep = run.run_workload_once(workload, 0, os.path.join(work, "crash"), Tracer())
    finally:
        cli.sweep_alpha = real
    step, cfg, out_dir, code, error = rep.outcomes[0]
    expect(error is not None or code != 0, "patched sweep neither raised nor exited nonzero")
    _, solve_q = run.measure_setup(workload)
    check = check_step("sweep", cfg, out_dir, code, error, solve_q, expect_constant=True)
    expect(len(check.ops) == len(cfg["alpha_list"]) and not any(op.ok for op in check.ops),
           "crashed sweep rows not all counted failed")
    print(f"ok  crashing sweep counted as {len(check.ops)} failed operations ({error or code})")


def absent_name() -> None:
    tracer = Tracer()
    tracer.install(solver, "fused_kernel_that_does_not_exist", "solver.gone")
    expect(tracer.absent == ["solver.gone"], "missing traced name not reported absent")
    tracer.uninstall()
    print("ok  missing traced name reported absent")


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK_ROOT)
    try:
        shape_checks(work)
        tampered_snapshot(work)
        crashing_sweep(work)
        absent_name()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
