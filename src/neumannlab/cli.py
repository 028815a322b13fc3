"""Command line driver.

Every run reads one key=value config file (or re-reads the ``config``
block of a previous run's manifest), executes a single subcommand, and
writes its outputs plus exactly one ``manifest.json`` into the output
directory.  The manifest echoes the fully resolved config, the constant
pack for the run's dimension, the package version, the seed, and wall
timings; JSON outputs name the manifest, CSV bodies stay plain so that
re-runs are byte-identical.

Exit codes: 0 success, 2 validation failure (bad flags, malformed or
incomplete config, out-of-domain inputs), 3 accuracy or convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .constants import make_params, snapshot
from .domain_grid import build_grid, save_field_snapshot
from .errors import ConfigurationError, NumericalFailure, ValidationError
from .instanton import expansion_suite
from .nehari import NormTriple, big_I, lower_bound, project_t, psi, upper_bound_constant
from .solver import SolveConfig, estimate_alpha0, minimize, sweep_alpha

THREADS_ENV = "NEUMANNLAB_THREADS"

# Geometric width ladder small enough for the quadratic small-width model
# yet wide enough that Richardson extrapolation has leverage.
DEFAULT_EPS = (0.00078125, 0.0015625, 0.003125, 0.00625, 0.0125)

# One schema row per config key: parser, default (REQUIRED sentinel when
# the key has no sensible fallback), and the subcommands that accept it.
_REQUIRED = object()


def _float_list(text: str) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_SOLVER_COMMANDS = ("minimize", "sweep", "alpha0")

CONFIG_SCHEMA = {
    "N": (int, 5, ("constants", "instanton-verify") + _SOLVER_COMMANDS),
    "R": (float, 1.0, ("constants", "instanton-verify") + _SOLVER_COMMANDS),
    "a": (float, 1.0, _SOLVER_COMMANDS),
    "alpha": (float, 0.0, ("minimize",)),
    "alpha_list": (_float_list, _REQUIRED, ("sweep", "alpha0")),
    "n_r": (int, 96, _SOLVER_COMMANDS),
    "n_theta": (int, 96, _SOLVER_COMMANDS),
    "stretch": (float, 3.0, _SOLVER_COMMANDS),
    "max_iters": (int, 400, _SOLVER_COMMANDS),
    "grad_tol": (float, 1e-4, _SOLVER_COMMANDS),
    "n_starts": (int, 4, _SOLVER_COMMANDS),
    "seed": (int, 0, _SOLVER_COMMANDS),
    "tau": (float, 0.01, _SOLVER_COMMANDS),
    "triples": (str, _REQUIRED, ("nehari-check",)),
    "eps_list": (_float_list, DEFAULT_EPS, ("instanton-verify",)),
    "n_rho": (int, 24, ("instanton-verify",)),
    "n_quad_theta": (int, 24, ("instanton-verify",)),
}

def _fmt(x) -> str:
    """One CSV cell. Floats at full round-trip precision, bools as 0/1."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _read_config_file(path: str) -> dict:
    """Raw key -> string map from a key=value file or a manifest echo."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # A previous run's manifest; replay its resolved config block.
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
            raise ConfigurationError(f"JSON config {path} lacks a 'config' object")
        return {str(k): v for k, v in doc["config"].items()}
    raw = {}
    bad_lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" in body:
            key, _, value = body.partition("=")
        elif ":" in body:
            key, _, value = body.partition(":")
        else:
            bad_lines.append(f"line {lineno}: {line.strip()!r}")
            continue
        raw[key.strip()] = value.strip()
    if bad_lines:
        raise ConfigurationError(
            "malformed config lines (want key = value): " + "; ".join(bad_lines)
        )
    return raw


def resolve_config(subcommand: str, raw: dict, overrides: dict) -> dict:
    """Merge file values and CLI overrides against the schema.

    Unknown keys (in the file or among the overrides, which includes
    keys the subcommand does not take), missing required keys, and
    unparseable values are all collected and reported together so one
    pass fixes the whole file.
    """
    allowed = {k: row for k, row in CONFIG_SCHEMA.items() if subcommand in row[2]}
    problems = []
    given = set(raw) | {k for k, v in overrides.items() if v is not None}
    unknown = given - set(allowed)
    if unknown:
        problems.append("unknown keys: " + ", ".join(sorted(unknown)))
    merged = {}
    for key, (parse, default, _) in allowed.items():
        source = None
        if key in raw:
            source = raw[key]
        if key in overrides and overrides[key] is not None:
            source = overrides[key]
        if source is None:
            if default is _REQUIRED:
                problems.append(f"missing key: {key}")
            else:
                merged[key] = default
            continue
        try:
            if isinstance(source, str):
                merged[key] = parse(source)
            elif parse is _float_list:
                merged[key] = tuple(float(v) for v in source)
            else:
                merged[key] = parse(source)
        except (TypeError, ValueError) as exc:
            problems.append(f"invalid value for {key}: {source!r} ({exc})")
    if problems:
        raise ConfigurationError(
            f"config rejected for {subcommand}: " + "; ".join(problems)
        )
    return merged


def _solver_pieces(cfg: dict):
    params = make_params(cfg["N"], cfg["a"], cfg.get("alpha", 0.0), cfg["R"])
    grid = build_grid(cfg["N"], cfg["R"], cfg["n_r"], cfg["n_theta"], cfg["stretch"])
    solve_config = SolveConfig(
        max_iters=cfg["max_iters"],
        grad_tol=cfg["grad_tol"],
        n_starts=cfg["n_starts"],
        seed=cfg["seed"],
        threshold_slack=cfg["tau"],
    )
    return params, grid, solve_config


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _finite_or_null(obj):
    """The payload with every NaN or infinite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _strict_json(payload, indent=None) -> str:
    """Strict JSON text: non-finite floats become null, never NaN or Infinity."""
    return json.dumps(_finite_or_null(payload), indent=indent, sort_keys=True, allow_nan=False)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_strict_json(payload, indent=2))
        fh.write("\n")


def _diagnostic_row(alpha: float, res) -> list:
    d = res.diagnostics
    fit_eps = d.fit.eps if d.fit is not None else float("nan")
    fit_c = d.fit.amplitude if d.fit is not None else float("nan")
    return [
        alpha,
        res.S_alpha_est,
        res.converged,
        d.M,
        d.delta_M,
        fit_eps,
        fit_c,
        d.w_norm,
        d.boundary_flag,
    ]


SWEEP_HEADER = [
    "alpha",
    "S_est",
    "converged",
    "M",
    "delta_M",
    "fit_eps",
    "fit_C",
    "w_norm",
    "boundary_flag",
]


def _result_payload(res) -> dict:
    d = res.diagnostics
    return {
        "S_alpha_est": res.S_alpha_est,
        "triple": {"a_bar": res.triple.a_bar, "b": res.triple.b, "c": res.triple.c},
        "iterations": res.iterations,
        "converged": bool(res.converged),
        "el_residual": res.el_residual,
        "start_values": list(res.start_values),
        "diagnostics": {
            "M": d.M,
            "delta_M": d.delta_M,
            "P": [float(p) for p in d.P],
            "w_norm": d.w_norm,
            "boundary_flag": bool(d.boundary_flag),
            "fit": None
            if d.fit is None
            else {"eps": d.fit.eps, "amplitude": d.fit.amplitude},
        },
    }


def _run_constants(cfg, out_dir, ctx, threads):
    pack = snapshot(cfg["N"], mean_curvature=1.0 / cfg["R"])
    text = json.dumps(pack, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        payload = dict(pack)
        payload["manifest"] = "manifest.json"
        _write_json(os.path.join(out_dir, "constants.json"), payload)
        ctx["outputs"].append("constants.json")
    return 0


def _run_nehari_check(cfg, out_dir, ctx, threads):
    rows = []
    with open(cfg["triples"], newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"a_bar", "b", "c", "N"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ConfigurationError(
                f"triples file needs columns a_bar,b,c,N, got {reader.fieldnames}"
            )
        for idx, row in enumerate(reader):
            try:
                triple = NormTriple(
                    float(row["a_bar"]), float(row["b"]), float(row["c"]), int(row["N"])
                )
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"triples row {idx}: {exc}") from exc
            rows.append(triple)
    records = []
    violations = 0
    for idx, triple in enumerate(rows):
        level = big_I(triple)
        lb = lower_bound(triple)
        ub = triple.beta * (
            1.0
            + (4.0 / float(triple.exponents.two_tilde)) * triple.delta
            + upper_bound_constant(triple.N) * triple.delta**2
        )
        bad = []
        slack = 1e-12 * abs(level)
        if level < lb - slack:
            bad.append("below lower bound")
        if level > ub + slack:
            bad.append("above upper bound")
        violations += bool(bad)
        records.append(
            {
                "row": idx,
                "t": project_t(triple),
                "psi": psi(triple),
                "I": level,
                "beta": triple.beta,
                "delta": triple.delta,
                "lb": lb,
                "ub": ub,
                "violations": bad,
            }
        )
    summary = {"rows": len(records), "violations": violations}
    ctx["summary"] = summary
    print(json.dumps(summary))
    if out_dir is not None:
        path = os.path.join(out_dir, "nehari_records.jsonl")
        with open(path, "w") as fh:
            for rec in records:
                fh.write(_strict_json(rec))
                fh.write("\n")
        ctx["outputs"].append("nehari_records.jsonl")
    if violations:
        raise NumericalFailure(f"{violations} of {len(records)} triples violate the bounds")
    return 0


def _run_instanton_verify(cfg, out_dir, ctx, threads):
    report = expansion_suite(
        cfg["N"],
        cfg["R"],
        cfg["eps_list"],
        n_rho=cfg["n_rho"],
        n_theta=cfg["n_quad_theta"],
    )
    worst = 0.0
    for rec in report.records:
        rows = [
            [eps, value, rec.c1, rec.expected_c1, rec.rel_error_c1]
            for eps, value in zip(rec.eps, rec.values)
        ]
        name = rec.name.replace("/", "_")
        fname = f"expansion_{name}.csv"
        if out_dir is not None:
            _write_csv(
                os.path.join(out_dir, fname),
                ["eps", "value", "extrapolated_coefficient", "expected_coefficient", "rel_error"],
                rows,
            )
            ctx["outputs"].append(fname)
        worst = max(worst, rec.rel_error_c0, rec.rel_error_c1)
        print(
            f"{rec.name}: c1 = {rec.c1:.6g} (expected {rec.expected_c1:.6g}, "
            f"rel err {rec.rel_error_c1:.2e})"
        )
    ctx["summary"] = {"worst_rel_error": worst}
    return 0


def _run_minimize(cfg, out_dir, ctx, threads):
    params, grid, solve_config = _solver_pieces(cfg)
    res = minimize(params, solve_config, grid, threads=threads)
    payload = _result_payload(res)
    payload["alpha"] = params.alpha
    payload["manifest"] = "manifest.json"
    print(
        f"S_alpha_est = {res.S_alpha_est:.12g}  converged = {res.converged}  "
        f"iterations = {res.iterations}"
    )
    if out_dir is not None:
        _write_json(os.path.join(out_dir, "result.json"), payload)
        save_field_snapshot(
            res.minimizer,
            os.path.join(out_dir, "field_final.csv"),
            os.path.join(out_dir, "field_final.json"),
        )
        ctx["outputs"] += ["result.json", "field_final.csv", "field_final.json"]
    ctx["summary"] = {"S_alpha_est": res.S_alpha_est, "converged": bool(res.converged)}
    if not res.converged:
        raise NumericalFailure(
            f"descent hit max_iters={solve_config.max_iters} at dual gradient norm above "
            f"grad_tol={solve_config.grad_tol}"
        )
    return 0


def _run_sweep(cfg, out_dir, ctx, threads):
    params, grid, solve_config = _solver_pieces(cfg)
    swept = sweep_alpha(params, cfg["alpha_list"], solve_config, grid, threads=threads)
    rows = [_diagnostic_row(a, r) for a, r in zip(swept.alphas, swept.results)]
    if out_dir is not None:
        _write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_HEADER, rows)
        ctx["outputs"].append("sweep.csv")
        for idx, res in enumerate(swept.results):
            base = f"field_{idx:03d}"
            save_field_snapshot(
                res.minimizer,
                os.path.join(out_dir, base + ".csv"),
                os.path.join(out_dir, base + ".json"),
            )
            ctx["outputs"] += [base + ".csv", base + ".json"]
    for row in rows:
        print(
            f"alpha = {row[0]:.6g}  S_est = {row[1]:.12g}  "
            f"boundary = {bool(row[8])}  converged = {bool(row[2])}"
        )
    ctx["summary"] = {
        "levels": [r.S_alpha_est for r in swept.results],
        "monotone_violations": list(swept.monotone_violations),
    }
    if swept.monotone_violations:
        raise NumericalFailure(
            f"level decreased across {len(swept.monotone_violations)} alpha step(s)"
        )
    return 0


def _run_alpha0(cfg, out_dir, ctx, threads):
    params, grid, solve_config = _solver_pieces(cfg)
    bracket = (cfg["alpha_list"][0], cfg["alpha_list"][-1])
    res = estimate_alpha0(params, solve_config, grid, bracket, threads=threads)
    payload = {
        "alpha_hat": res.alpha_hat,
        "certificate_below": list(res.certificate_below),
        "certificate_above": list(res.certificate_above),
        "threshold": res.threshold,
        "analytic_curvature_bound": res.analytic_curvature_bound,
        "analytic_amax_bound": res.analytic_amax_bound,
        "evaluations": [list(ev) for ev in res.evaluations],
        "manifest": "manifest.json",
    }
    print(
        f"alpha_hat = {res.alpha_hat:.6g}  bracket = [{bracket[0]:g}, {bracket[1]:g}]  "
        f"threshold = {res.threshold:.12g}"
    )
    if out_dir is not None:
        _write_json(os.path.join(out_dir, "alpha0.json"), payload)
        ctx["outputs"].append("alpha0.json")
    ctx["summary"] = {"alpha_hat": res.alpha_hat}
    return 0


# Every handler takes (cfg, out_dir, ctx, threads); the config schema
# decides which keys reach it.
HANDLERS = {
    "constants": _run_constants,
    "nehari-check": _run_nehari_check,
    "instanton-verify": _run_instanton_verify,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "alpha0": _run_alpha0,
}

SUBCOMMANDS = tuple(HANDLERS)


def _resolve_threads(threads) -> int:
    if threads is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError as exc:
                raise ConfigurationError(f"{THREADS_ENV}={env!r} is not an integer") from exc
        else:
            threads = 1
    threads = int(threads)
    if threads < 1:
        raise ConfigurationError(f"threads >= 1 required, got {threads}")
    return threads


def run(subcommand: str, config_path=None, output_dir=None, overrides=None,
        seed=None, threads=None) -> int:
    """Execute one subcommand; returns the process exit code."""
    t0 = time.perf_counter()
    ctx = {"outputs": [], "summary": {}}
    cfg = None
    code = 0
    failure = None
    try:
        if subcommand not in SUBCOMMANDS:
            raise ConfigurationError(
                f"unknown subcommand {subcommand!r}, want one of {', '.join(SUBCOMMANDS)}"
            )
        raw = {} if config_path is None else _read_config_file(config_path)
        # the override joins the config, so cfg["seed"] is the one seed a
        # run uses and the one its manifest echoes for a replay
        overrides = dict(overrides or {})
        if seed is not None:
            overrides["seed"] = seed
        cfg = resolve_config(subcommand, raw, overrides)
        threads = _resolve_threads(threads)
        if output_dir is not None:
            os.makedirs(output_dir, exist_ok=True)
        code = HANDLERS[subcommand](cfg, output_dir, ctx, threads)
    except ValidationError as exc:
        # No manifest: a run whose config never validated has nothing to echo.
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        code = 3
        failure = str(exc)
    if output_dir is not None and cfg is not None:
        config_echo = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())
        }
        manifest = {
            "subcommand": subcommand,
            "version": __version__,
            "config": config_echo,
            "constants": snapshot(cfg["N"], mean_curvature=1.0 / cfg["R"])
            if "N" in cfg
            else None,
            "seed": cfg.get("seed"),
            "threads": threads,
            "outputs": ctx["outputs"],
            "summary": ctx["summary"],
            "failure": failure,
            "timings": {"total_s": time.perf_counter() - t0},
        }
        _write_json(os.path.join(output_dir, "manifest.json"), manifest)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neumannlab",
        description="variational laboratory for a critical Neumann problem on the ball",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file, or a manifest.json to replay")
        p.add_argument("--out", default=None, help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help=f"multistart worker count (default ${THREADS_ENV} or 1)",
        )
        for key, (parse, _, commands) in CONFIG_SCHEMA.items():
            if name not in commands or key == "seed":
                continue  # --seed is the common override flag above
            flag = "--" + key.replace("_", "-")
            if parse is _float_list:
                p.add_argument(flag, dest=key, default=None, metavar="V1,V2,...")
            else:
                p.add_argument(flag, dest=key, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in CONFIG_SCHEMA
        if getattr(args, key, None) is not None
    }
    return run(
        args.subcommand,
        config_path=args.config,
        output_dir=args.out,
        overrides=overrides,
        threads=args.threads,
    )


if __name__ == "__main__":
    sys.exit(main())
