"""Output gate and failure accounting for one solver subcommand run.

Runs outside the timed region, on the files ``neumannlab.cli.run`` wrote.
An *operation* is one alpha row of ``sweep.csv``, one ``minimize``
result or one ``alpha0`` call.  It fails when it did not converge, when
the run exited nonzero or raised, or when its outputs fail a check here.
A failed check is also a *violation*: the output is wrong, not merely
unconverged, and the benchmark reports ``correct: false``.

Checks:
- every written field, reloaded with ``load_field_snapshot``, has the
  reported level to 1e-10 relative;
- ``sweep.csv`` levels are nondecreasing;
- ``alpha0.json`` has below < threshold <= above and ``alpha_hat``
  inside the bracket;
- ``minimize``: level <= every start's level, and the boundary flag
  when the workload expects concentration;
- sweeps that expect the constant solution: each level equals
  ``I_alpha_of_one`` to 1e-8 relative.
The ``nan`` that ``sweep.csv`` writes in ``fit_*``/``w_norm`` for a
skipped instanton fit is accepted as the CLI's current behaviour.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

from neumannlab.constants import I_alpha_of_one, make_params
from neumannlab.domain_grid import load_field_snapshot, norms
from neumannlab.nehari import big_I
from neumannlab.solver import euler_lagrange_residual

SNAPSHOT_RTOL = 1e-10
CONSTANT_RTOL = 1e-8


@dataclass
class Op:
    label: str
    ok: bool = True
    reasons: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


@dataclass
class StepCheck:
    ops: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    levels: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def violate(self, op: Op, reason: str) -> None:
        op.fail("gate: " + reason)
        self.violations.append(f"{op.label}: {reason}")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _check_snapshot(check: StepCheck, op: Op, out_dir: str, base: str, params,
                    reported: float, solve_q):
    """Reload one field, compare its level, record its EL residual."""
    field_ = load_field_snapshot(os.path.join(out_dir, base + ".csv"),
                                 os.path.join(out_dir, base + ".json"))
    level = big_I(norms(field_, params).triple)
    if not _close(level, reported, SNAPSHOT_RTOL):
        check.violate(op, f"{base} reloads to level {level!r}, reported {reported!r}")
    check.residuals.append(euler_lagrange_residual(field_, params, solve_q))
    return field_


def _run_failure(code, error):
    if error is not None:
        return f"raised {error}"
    if code != 0:
        return f"exit code {code}"
    return None


def check_step(sub: str, cfg: dict, out_dir: str, code, error, solve_q,
               expect_boundary: bool = False, expect_constant: bool = False) -> StepCheck:
    """Gate the outputs of one ``cli.run`` call; never raises."""
    check = StepCheck()
    gate = {"minimize": _gate_minimize, "sweep": _gate_sweep, "alpha0": _gate_alpha0}[sub]
    try:
        gate(check, cfg, out_dir, _run_failure(code, error), solve_q,
             expect_boundary, expect_constant)
    except Exception as exc:  # missing or malformed output is a gate failure, not a crash
        op = check.ops[-1] if check.ops else None
        if op is None:
            op = Op(f"{sub}")
            check.ops.append(op)
        check.violate(op, f"unreadable output ({type(exc).__name__}: {exc})")
    return check


def _params(cfg: dict, alpha: float):
    return make_params(int(cfg["N"]), float(cfg["a"]), float(alpha), float(cfg["R"]))


def _gate_minimize(check, cfg, out_dir, run_failure, solve_q, expect_boundary, _):
    op = Op(f"minimize alpha={cfg['alpha']:g}")
    check.ops.append(op)
    if run_failure:
        op.fail(run_failure)
        if not os.path.exists(os.path.join(out_dir, "result.json")):
            return
    with open(os.path.join(out_dir, "result.json")) as fh:
        res = json.load(fh)
    level = float(res["S_alpha_est"])
    check.levels.append(level)
    if not res["converged"]:
        op.fail("not converged")
    _check_snapshot(check, op, out_dir, "field_final", _params(cfg, cfg["alpha"]), level, solve_q)
    if not level <= min(res["start_values"]):
        check.violate(op, f"level {level!r} above the best start {min(res['start_values'])!r}")
    if expect_boundary and not res["diagnostics"]["boundary_flag"]:
        check.violate(op, "expected boundary concentration, boundary_flag is false")


def _gate_sweep(check, cfg, out_dir, run_failure, solve_q, _, expect_constant):
    alphas = list(cfg["alpha_list"])
    ops = [Op(f"sweep alpha={a:g}") for a in alphas]
    check.ops.extend(ops)
    if run_failure:
        for op in ops:
            op.fail(run_failure)
    path = os.path.join(out_dir, "sweep.csv")
    if run_failure and not os.path.exists(path):
        return
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(alphas):
        check.violate(ops[0], f"sweep.csv has {len(rows)} rows for {len(alphas)} alphas")
        return
    prev = -math.inf
    for idx, (op, row) in enumerate(zip(ops, rows)):
        alpha = float(row["alpha"])
        level = float(row["S_est"])
        check.levels.append(level)
        if row["converged"] != "1":
            op.fail("not converged")
        if not level >= prev:
            check.violate(op, f"level {level!r} below the previous alpha's {prev!r}")
        prev = level
        params = _params(cfg, alpha)
        field_ = _check_snapshot(check, op, out_dir, f"field_{idx:03d}", params, level, solve_q)
        if expect_constant:
            const = I_alpha_of_one(params, field_.grid.volume)
            if not _close(level, const, CONSTANT_RTOL):
                check.violate(op, f"level {level!r} is not the constant level {const!r}")


def _gate_alpha0(check, cfg, out_dir, run_failure, *_):
    op = Op("alpha0")
    check.ops.append(op)
    if run_failure:
        op.fail(run_failure)
        if not os.path.exists(os.path.join(out_dir, "alpha0.json")):
            return
    with open(os.path.join(out_dir, "alpha0.json")) as fh:
        res = json.load(fh)
    below, above, threshold = res["certificate_below"], res["certificate_above"], res["threshold"]
    if not below[1] < threshold <= above[1]:
        check.violate(op, f"certificate {below} / {above} does not straddle {threshold!r}")
    lo, hi = cfg["alpha_list"][0], cfg["alpha_list"][-1]
    if not lo <= res["alpha_hat"] <= hi:
        check.violate(op, f"alpha_hat {res['alpha_hat']!r} outside [{lo:g}, {hi:g}]")
