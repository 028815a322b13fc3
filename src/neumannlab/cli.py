"""Command line driver.

Every run reads one key=value config file (or re-reads the ``config``
block of a previous run's manifest) and executes a single subcommand.
Its handler computes and stages its outputs in ``ctx["outputs"]``;
``run()`` alone writes them, then exactly one ``manifest.json`` that
lists them, and creates the output directory only then.  The manifest
echoes the fully resolved config, the constant pack for the run's
dimension, the package version and wall timings; JSON
outputs name the manifest, CSV bodies stay plain so that re-runs are
byte-identical.  The outputs are the solver's records, field for field:
``alpha0.json`` is ``Alpha0Result``, ``result.json`` is ``SolveResult``,
``alpha`` included, less the minimizer (the ``field_final`` snapshot),
and every CSV row is a dict whose keys are the header.

Every flag but ``--config`` and ``--out`` is a config key, generated
from ``CONFIG_SCHEMA`` for the subcommands that take it.  The solver
subcommands (``minimize``, ``sweep``, ``alpha0``) share six keys, the
fields of ``SolveConfig`` under the same names and with its defaults:
``max_iters``, ``grad_tol``, ``n_starts``, ``seed``, ``tau`` and
``threads``.  The run builds its ``SolveConfig`` from them by name, which
checks their types and ranges, so the manifest echoes the settings the
solver used and a replay reuses them.  The other subcommands have no
``--seed`` or ``--threads``, and argparse rejects those as it does any
foreign flag.

Exit codes: 0 success, 1 internal error (an exception outside the
package's own types, once the config has validated: the manifest
records it as ``failure`` and the traceback goes to stderr), 2
validation failure (bad flags, malformed or incomplete config, a float
or bool for an integer key, a replayed null, an R that is not positive,
out-of-domain inputs, a non-finite triple, an unreadable input file, an
empty or unmakeable output directory: nothing is written, not even the
output directory), 3 accuracy or convergence failure.  The solver
subcommands write every output and the manifest first, then exit 3 when
any solve they report stopped above ``grad_tol``.
"""

from __future__ import annotations

import os

# The Q^{-1} solves are dense BLAS products, and each --threads worker
# would otherwise start BLAS threads of its own on the same cores.  Set
# before numpy loads its BLAS; a value the caller exported wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import dataclasses
import io
import json
import math
import shutil
import sys
import time
import traceback

import numpy as np

from . import __version__
from .constants import make_params, snapshot
from .domain_grid import Field, build_grid, save_field_snapshot
from .errors import ConfigurationError, NumericalFailure, ValidationError
from .instanton import expansion_suite
from .nehari import NormTriple, big_I, lower_bound, project_t, psi, upper_bound
from .solver import SolveConfig, estimate_alpha0, minimize, sweep_alpha

# Geometric width ladder, in units of R, small enough for the quadratic
# small-width model yet wide enough that Richardson extrapolation has leverage.
DEFAULT_EPS = (0.00078125, 0.0015625, 0.003125, 0.00625, 0.0125)

# One schema row per config key: parser, default (REQUIRED sentinel when
# the key has no sensible fallback), and the subcommands that accept it.
_REQUIRED = object()


def _int(value) -> int:
    """An int key's value: an int, or a base-10 integer string.  A bool or
    a float (a replayed manifest's 32.7 or true) is refused, never
    truncated."""
    if isinstance(value, str):
        return int(value, 10)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("not an integer")


def _finite_float(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _positive_float(value) -> float:
    x = _finite_float(value)
    if not x > 0:
        raise ValueError("not positive")
    return x


def _text(value) -> str:
    """A path key's value; a replayed null or number is refused."""
    if not isinstance(value, str):
        raise ValueError("not a string")
    return value


def _float_list(value) -> tuple:
    """A list key's values, from config text or a replayed JSON array.
    Text separates them by commas, spaces or both; an empty item before,
    between or after commas is refused, not dropped."""
    if isinstance(value, str):
        items = [item.split() for item in value.split(",")]
        parts = [p for item in items for p in item]
        if parts and not all(items):
            raise ValueError("empty item beside a comma")
    else:
        parts = list(value)
    if not parts:
        raise ValueError("empty list")
    return tuple(_finite_float(p) for p in parts)


_SOLVER_COMMANDS = ("minimize", "sweep", "alpha0")
_SOLVER_SETTINGS = dataclasses.fields(SolveConfig)

CONFIG_SCHEMA = {
    "N": (_int, 5, ("constants", "instanton-verify") + _SOLVER_COMMANDS),
    "R": (_positive_float, 1.0, ("constants", "instanton-verify") + _SOLVER_COMMANDS),
    "a": (_finite_float, 1.0, _SOLVER_COMMANDS),
    "alpha": (_finite_float, 0.0, ("minimize",)),
    "alpha_list": (_float_list, _REQUIRED, ("sweep", "alpha0")),
    "n_r": (_int, 96, _SOLVER_COMMANDS),
    "n_theta": (_int, 96, _SOLVER_COMMANDS),
    "stretch": (_finite_float, 3.0, _SOLVER_COMMANDS),
    # the solver's settings, with SolveConfig's defaults; it checks them
    **{
        f.name: ({"int": _int, "float": _finite_float}[f.type], f.default, _SOLVER_COMMANDS)
        for f in _SOLVER_SETTINGS
    },
    "triples": (_text, _REQUIRED, ("nehari-check",)),
    "eps_list": (_float_list, DEFAULT_EPS, ("instanton-verify",)),
}

def _fmt(x) -> str:
    """One CSV cell. Floats at full round-trip precision, bools as 0/1."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _read_text(path: str, what: str) -> str:
    """A named input file's text; an unreadable file is rejected input."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} file {path}: {exc}") from exc


def _read_config_file(path: str) -> dict:
    """Raw key -> string map from a key=value file or a manifest echo."""
    text = _read_text(path, "config")
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
    raw, first_line = {}, {}
    bad_lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            bad_lines.append(f"line {lineno}: {line.strip()!r}")
            continue
        key, _, value = body.partition("=")
        key = key.strip()
        if key in first_line:
            bad_lines.append(f"line {lineno}: {key} repeats line {first_line[key]}")
            continue
        first_line[key] = lineno
        raw[key] = value.strip()
    if bad_lines:
        raise ConfigurationError(
            "malformed config lines (want key = value, each key once): " + "; ".join(bad_lines)
        )
    return raw


def resolve_config(subcommand: str, raw: dict, overrides: dict) -> dict:
    """Merge file values and CLI overrides against the schema.

    Unknown keys (in the file or among the overrides, which includes
    keys the subcommand does not take), missing required keys, and
    unparseable values are all collected and reported together so one
    pass fixes the whole file.  A key in the file is parsed whatever its
    value, so a replayed null is invalid; a None override (argparse's
    default for every flag) is a key not given.
    """
    allowed = {k: row for k, row in CONFIG_SCHEMA.items() if subcommand in row[2]}
    problems = []
    given = set(raw) | {k for k, v in overrides.items() if v is not None}
    unknown = given - set(allowed)
    if unknown:
        problems.append("unknown keys: " + ", ".join(sorted(unknown)))
    merged = {}
    for key, (parse, default, _) in allowed.items():
        if overrides.get(key) is not None:
            source = overrides[key]
        elif key in raw:
            source = raw[key]
        elif default is _REQUIRED:
            problems.append(f"missing key: {key}")
            continue
        else:
            merged[key] = default
            continue
        try:
            merged[key] = parse(source)
        except (TypeError, ValueError) as exc:
            problems.append(f"invalid value for {key}: {source!r} ({exc})")
    if problems:
        raise ConfigurationError(
            f"config rejected for {subcommand}: " + "; ".join(problems)
        )
    return merged


def _solver_pieces(cfg: dict):
    params = make_params(cfg["N"], cfg["a"], cfg.get("alpha", 0.0))
    grid = build_grid(cfg["N"], cfg["R"], cfg["n_r"], cfg["n_theta"], cfg["stretch"])
    solve_config = SolveConfig(**{f.name: cfg[f.name] for f in _SOLVER_SETTINGS})
    return params, grid, solve_config


def _write_csv(path: str, rows: list) -> None:
    """A CSV of dict rows: the header is their keys, in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({key: _fmt(cell) for key, cell in row.items()} for row in rows)


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


def _check_output_dir(out_dir: str) -> None:
    """Reject an ``--out`` that cannot become a directory, creating
    nothing: the nearest existing path, itself or an ancestor, must be a
    writable directory.  An empty path names no directory."""
    if not out_dir:
        raise ConfigurationError("output directory is an empty path")
    path = out_dir
    while not os.path.lexists(path):
        path = os.path.dirname(path) or os.curdir
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigurationError(
            f"output directory {out_dir} cannot be made: {path} is not a writable directory"
        )


def _write_outputs(out_dir: str, outputs: dict) -> list:
    """Create ``out_dir`` and write each staged output by its kind: a
    ``Field`` as its ``<name>.csv``/``<name>.json`` snapshot pair, a
    ``.csv`` as its dict rows, a ``.jsonl`` as strict JSON lines, one per
    record, and any other name as one JSON document.  A ``Field`` on the
    grid of one already written, with the same bits, copies that pair:
    a sweep's constant branch is one pinned field at every alpha.  Bits,
    not values, since ``%.17g`` prints -0.0 and 0.0 apart.  Returns the
    written file names in order."""
    os.makedirs(out_dir, exist_ok=True)
    written, formatted = [], []
    for name, content in outputs.items():
        path = os.path.join(out_dir, name)
        if isinstance(content, Field):
            grid, bits = content.grid, content.values.view(np.uint64)
            twin = next((p for g, b, p in formatted if g is grid and np.array_equal(b, bits)), None)
            if twin is None:
                save_field_snapshot(content, path + ".csv", path + ".json")
                formatted.append((grid, bits, path))
            else:
                for ext in (".csv", ".json"):
                    shutil.copyfile(twin + ext, path + ext)
            written += [name + ".csv", name + ".json"]
            continue
        if name.endswith(".csv"):
            _write_csv(path, content)
        elif name.endswith(".jsonl"):
            with open(path, "w") as fh:
                fh.writelines(_strict_json(rec) + "\n" for rec in content)
        else:
            _write_json(path, content)
        written.append(name)
    return written


def _sweep_row(res) -> dict:
    """One ``sweep.csv`` row; a skipped fit reads nan."""
    d = res.diagnostics
    nan = float("nan")
    return {
        "alpha": res.alpha,
        "S_est": res.S_alpha_est,
        "converged": res.converged,
        "M": d.M,
        "delta_M": d.delta_M,
        "fit_eps": nan if d.fit is None else d.fit.eps,
        "fit_C": nan if d.fit is None else d.fit.amplitude,
        "w_norm": d.w_norm,
        "boundary_flag": d.boundary_flag,
    }


def _run_constants(cfg, ctx):
    pack = snapshot(cfg["N"], mean_curvature=1.0 / cfg["R"])
    print(_strict_json(pack, indent=2))
    ctx["outputs"]["constants.json"] = dict(pack, manifest="manifest.json")


def _run_nehari_check(cfg, ctx):
    reader = csv.DictReader(io.StringIO(_read_text(cfg["triples"], "triples")))
    required = {"a_bar", "b", "c", "N"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise ConfigurationError(
            f"triples file needs columns a_bar,b,c,N, got {reader.fieldnames}"
        )
    records = []
    violations = 0
    for idx, row in enumerate(reader):
        try:
            triple = NormTriple(
                *(_finite_float(row[k]) for k in ("a_bar", "b", "c")), _int(row["N"])
            )
        except (TypeError, ValueError, ValidationError) as exc:
            raise ConfigurationError(f"triples row {idx}: {exc}") from exc
        level = big_I(triple)
        lb = lower_bound(triple)
        ub = upper_bound(triple)
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
    ctx["outputs"]["nehari_records.jsonl"] = records
    if violations:
        raise NumericalFailure(f"{violations} of {len(records)} triples violate the bounds")


def _run_instanton_verify(cfg, ctx):
    report = expansion_suite(cfg["N"], cfg["R"], cfg["eps_list"])
    worst = 0.0
    for rec in report.records:
        ctx["outputs"][f"expansion_{rec.name.replace('/', '_')}.csv"] = [
            {
                "eps": eps,
                "value": value,
                "extrapolated_coefficient": rec.c1,
                "expected_coefficient": rec.expected_c1,
                "rel_error": rec.rel_error_c1,
            }
            for eps, value in zip(rec.eps, rec.values)
        ]
        worst = max(worst, rec.rel_error_c0, rec.rel_error_c1)
        print(
            f"{rec.name}: c1 = {rec.c1:.6g} (expected {rec.expected_c1:.6g}, "
            f"rel err {rec.rel_error_c1:.2e})"
        )
    ctx["summary"] = {"worst_rel_error": worst}


def _run_minimize(cfg, ctx):
    params, grid, solve_config = _solver_pieces(cfg)
    res = minimize(params, solve_config, grid)
    print(
        f"S_alpha_est = {res.S_alpha_est:.12g}  converged = {res.converged}  "
        f"iterations = {res.iterations}"
    )
    # the minimizer is its own snapshot, and asdict would deep-copy its grid
    record = dataclasses.asdict(dataclasses.replace(res, minimizer=None))
    del record["minimizer"]
    ctx["outputs"]["result.json"] = dict(record, manifest="manifest.json")
    ctx["outputs"]["field_final"] = res.minimizer
    ctx["summary"] = {"S_alpha_est": res.S_alpha_est, "converged": bool(res.converged)}
    if not res.converged:
        reasons = ", ".join(st.stop_reason for st in res.starts)
        raise NumericalFailure(
            f"the lowest start stopped above grad_tol={solve_config.grad_tol} "
            f"(max_iters={solve_config.max_iters}; stop reasons by start: {reasons})"
        )


def _run_sweep(cfg, ctx):
    params, grid, solve_config = _solver_pieces(cfg)
    swept = sweep_alpha(params, cfg["alpha_list"], solve_config, grid)
    rows = [_sweep_row(r) for r in swept.results]
    ctx["outputs"]["sweep.csv"] = rows
    for idx, res in enumerate(swept.results):
        ctx["outputs"][f"field_{idx:03d}"] = res.minimizer
    for row in rows:
        print(
            f"alpha = {row['alpha']:.6g}  S_est = {row['S_est']:.12g}  "
            f"boundary = {row['boundary_flag']}  converged = {row['converged']}"
        )
    ctx["summary"] = {
        "levels": [r.S_alpha_est for r in swept.results],
        "monotone_violations": list(swept.monotone_violations),
    }
    problems = []
    if swept.monotone_violations:
        problems.append(f"level decreased across {len(swept.monotone_violations)} alpha step(s)")
    unconverged = [r.alpha for r in swept.results if not r.converged]
    if unconverged:
        problems.append(_stopped_above_tol(unconverged, solve_config))
    if problems:
        raise NumericalFailure("; ".join(problems))


def _stopped_above_tol(alphas, solve_config) -> str:
    """The failure that names the alphas whose reported solve did not
    converge."""
    return (
        f"{len(alphas)} solve(s) stopped above grad_tol={solve_config.grad_tol} "
        f"(max_iters={solve_config.max_iters}) at alpha = {', '.join(f'{a:g}' for a in alphas)}"
    )


def _run_alpha0(cfg, ctx):
    params, grid, solve_config = _solver_pieces(cfg)
    bracket = (cfg["alpha_list"][0], cfg["alpha_list"][-1])
    res = estimate_alpha0(params, solve_config, grid, bracket)
    print(
        f"alpha_hat = {res.alpha_hat:.6g}  bracket = [{bracket[0]:g}, {bracket[1]:g}]  "
        f"threshold = {res.threshold:.12g}"
    )
    ctx["outputs"]["alpha0.json"] = dict(dataclasses.asdict(res), manifest="manifest.json")
    ctx["summary"] = {"alpha_hat": res.alpha_hat}
    unconverged = [a for a, _, converged in res.evaluations if not converged]
    if unconverged:
        raise NumericalFailure(_stopped_above_tol(unconverged, solve_config))


# Every handler takes (cfg, ctx) and returns nothing; the config schema
# decides which keys reach it, and run() writes what it stages.
HANDLERS = {
    "constants": _run_constants,
    "nehari-check": _run_nehari_check,
    "instanton-verify": _run_instanton_verify,
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "alpha0": _run_alpha0,
}

SUBCOMMANDS = tuple(HANDLERS)


def run(subcommand: str, config_path=None, output_dir=None, overrides=None,
        seed=None, threads=None) -> int:
    """Execute one subcommand; returns the process exit code.  ``seed``
    and ``threads``, when given, override those two config keys."""
    t0 = time.perf_counter()
    ctx = {"outputs": {}, "summary": {}}
    cfg = None
    code = 0
    failure = None
    try:
        if subcommand not in SUBCOMMANDS:
            raise ConfigurationError(
                f"unknown subcommand {subcommand!r}, want one of {', '.join(SUBCOMMANDS)}"
            )
        raw = {} if config_path is None else _read_config_file(config_path)
        # the overrides join the config, so cfg["seed"] and cfg["threads"]
        # are the ones a run uses and the ones its manifest echoes for a
        # replay
        overrides = dict(overrides or {})
        for key, value in (("seed", seed), ("threads", threads)):
            if value is not None:
                overrides[key] = value
        cfg = resolve_config(subcommand, raw, overrides)
        if output_dir is not None:
            _check_output_dir(output_dir)
        HANDLERS[subcommand](cfg, ctx)
    except ValidationError as exc:
        # Nothing is written, not even the output directory.
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        code = 3
        failure = str(exc)
    except Exception as exc:
        if cfg is None:
            raise
        traceback.print_exc()
        code = 1
        failure = f"{type(exc).__name__}: {exc}"
    if output_dir is not None and cfg is not None:
        outputs = _write_outputs(output_dir, ctx["outputs"])
        # strict JSON sorts the keys and writes a tuple as an array
        manifest = {
            "subcommand": subcommand,
            "version": __version__,
            "config": cfg,
            "constants": snapshot(cfg["N"], mean_curvature=1.0 / cfg["R"])
            if "N" in cfg
            else None,
            "outputs": outputs,
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
        for key, (parse, _, commands) in CONFIG_SCHEMA.items():
            if name not in commands:
                continue
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
    )


if __name__ == "__main__":
    sys.exit(main())
