"""Exit codes, config handling, and output files of the command line driver."""

import csv
import dataclasses
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import numpy as np

from neumannlab import cli, solver
from neumannlab.constants import snapshot
from neumannlab.domain_grid import Field, build_grid, load_field_snapshot


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


SMALL_SOLVER = """
N = 5
R = 1.0
a = 1.0
n_r = 32
n_theta = 32
stretch = 2.0
max_iters = 150
grad_tol = 3e-4
n_starts = 2
seed = 0
tau = 0.01
"""


def override(text, extra):
    """Config ``text`` with the lines of ``extra`` in place of its own
    lines for the same keys, since a config gives each key once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


TRIPLES = "a_bar,b,c,N\n1.0,0.5,1.0,5\n2.0,0.0,1.5,5\n"


class TestOutputDirectory:
    """run() alone writes: a rejected run leaves nothing, and the manifest
    names exactly the files written."""

    @pytest.mark.parametrize(
        "subcommand, extra",
        [
            ("minimize", "n_r = 16\n"),
            ("minimize", "grad_tol = -1\n"),
            ("minimize", "stretch = 50\n"),
            ("minimize", "stretch = 1000\n"),
            ("sweep", "alpha_list = 3.0, 1.0\n"),
            ("alpha0", "alpha_list = 1.0\n"),
        ],
    )
    def test_rejected_run_creates_nothing(self, subcommand, extra, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", override(SMALL_SOLVER, extra))
        out = tmp_path / "run"
        assert cli.run(subcommand, config_path=cfg, output_dir=str(out)) == 2
        assert "validation error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, text",
        [
            ("constants", "N = 5\n"),
            ("nehari-check", "triples = {tmp}/t.csv\n"),
            ("instanton-verify", "eps_list = 0.003125, 0.00625, 0.0125\n"),
            ("minimize", SMALL_SOLVER + "alpha = 1.0\n"),
            ("sweep", SMALL_SOLVER + "alpha_list = 0.5, 1.5\n"),
            ("alpha0", SMALL_SOLVER + "alpha_list = 2.0, 3.5\n"),
        ],
    )
    def test_manifest_names_the_written_files(self, subcommand, text, tmp_path, capsys):
        (tmp_path / "t.csv").write_text(TRIPLES)
        cfg = write_cfg(tmp_path / "c.cfg", text.format(tmp=tmp_path))
        out = tmp_path / "run"
        assert cli.run(subcommand, config_path=cfg, output_dir=str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"]
        assert sorted(os.listdir(out)) == sorted(manifest["outputs"] + ["manifest.json"])

    @pytest.mark.parametrize(
        "subcommand, text, below",
        [
            ("constants", "N = 5\n", ("sub",)),
            ("constants", "N = 5\n", ()),
            ("minimize", SMALL_SOLVER + "alpha = 1.0\n", ()),
            ("minimize", SMALL_SOLVER + "alpha = 1.0\n", ("sub", "deeper")),
        ],
        ids=["constants-below-file", "constants-is-file", "minimize-is-file", "minimize-below-file"],
    )
    def test_out_that_cannot_be_a_directory(self, subcommand, text, below, tmp_path, capsys,
                                            monkeypatch):
        # --out set to an existing file, or below one, exits 2 before the
        # handler runs, names the path and leaves the file as it was
        def handler(cfg, ctx):
            raise AssertionError("the handler ran")

        monkeypatch.setitem(cli.HANDLERS, subcommand, handler)
        cfg = write_cfg(tmp_path / "c.cfg", text)
        afile = tmp_path / "afile"
        afile.write_bytes(b"keep")
        out = afile.joinpath(*below)
        before = sorted(os.listdir(tmp_path))
        assert cli.run(subcommand, config_path=cfg, output_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and str(afile) in err
        assert afile.read_bytes() == b"keep"
        assert sorted(os.listdir(tmp_path)) == before

    def test_out_below_new_directories_is_made(self, tmp_path, capsys):
        out = tmp_path / "new" / "deeper"
        assert cli.run("constants", overrides={"N": "5"}, output_dir=str(out)) == 0
        assert (out / "manifest.json").is_file()

    def test_out_below_unwritable_directory(self, tmp_path, capsys, monkeypatch):
        # the nearest existing ancestor of --out exists but may not be
        # written: exit 2 before the handler runs, naming that ancestor
        def handler(cfg, ctx):
            raise AssertionError("the handler ran")

        locked = tmp_path / "locked"
        locked.mkdir()
        real = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: False if path == str(locked) else real(path, mode)
        )
        monkeypatch.setitem(cli.HANDLERS, "constants", handler)
        out = locked / "new" / "run"
        assert cli.run("constants", overrides={"N": "5"}, output_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and f"{locked} is not a writable directory" in err
        assert os.listdir(locked) == []

    def test_without_out_nothing_is_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.run("constants") == 0
        assert os.listdir(tmp_path) == []


class TestConstantsCommand:
    def test_stdout_json(self, capsys):
        code = cli.run("constants", overrides={"N": "5"})
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got == pytest.approx(snapshot(5, mean_curvature=1.0))
        assert set(got) == {"N", "S", "B", "A", "cbar1", "cbar2", "omega_N"}

    def test_stdout_is_strict_json_when_curvature_overflows(self, capsys):
        # 1 / R overflows at R = 1e-320; stdout prints null, as the file does
        assert cli.run("constants", overrides={"N": "5", "R": "1e-320"}) == 0
        got = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert got["cbar1"] is None and got["cbar2"] is None

    def test_radius_sets_curvature(self, capsys):
        cli.run("constants", overrides={"N": "5", "R": "2.0"})
        got = json.loads(capsys.readouterr().out)
        want = snapshot(5, mean_curvature=0.5)
        assert got["cbar1"] == pytest.approx(want["cbar1"], rel=1e-15)

    def test_writes_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.run("constants", output_dir=str(out), overrides={"N": "6"}) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert payload["manifest"] == "manifest.json"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "constants"
        assert manifest["outputs"] == ["constants.json"]
        assert manifest["constants"]["N"] == 6
        assert manifest["version"] == cli.__version__
        assert manifest["failure"] is None

    @pytest.mark.parametrize("N, code", [("30", 0), ("31", 2), ("150", 2)])
    def test_dimension_past_n_max(self, N, code, tmp_path, capsys):
        # every subcommand takes N <= 30; past it nothing is written, even
        # where the constants themselves would overflow
        out = tmp_path / "run"
        assert cli.run("constants", output_dir=str(out), overrides={"N": N}) == code
        if code:
            assert "N <= 30" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert json.loads((out / "manifest.json").read_text())["constants"]["N"] == 30


class TestConfigRejection:
    def test_unknown_keys_listed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "N = 5\nbogus_key = 7\nwhatever = x\n")
        assert cli.run("minimize", config_path=cfg) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and "whatever" in err

    def test_missing_required_key_listed(self, capsys):
        assert cli.run("sweep") == 2
        assert "alpha_list" in capsys.readouterr().err

    def test_bad_value_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "N = 5\nn_r = many\n")
        assert cli.run("minimize", config_path=cfg) == 2
        assert "n_r" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", "N = 5\nthis line has no separator\n")
        assert cli.run("minimize", config_path=cfg) == 2
        assert "line 2" in capsys.readouterr().err

    def test_comments_accepted(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            "# full-line comment\nN = 5\n\nR = 1.0  # trailing comment\n",
        )
        assert cli.run("constants", config_path=cfg) == 0

    def test_colon_line_is_malformed(self, tmp_path, capsys):
        # the format is key = value only; a key: value line is not a
        # second syntax, and the run writes nothing
        cfg = write_cfg(tmp_path / "c.cfg", "N = 5\nn_r: 32\n")
        out = tmp_path / "run"
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "malformed config lines" in err and "line 2" in err and "n_r: 32" in err
        assert not out.exists()

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # a later value does not silently win: the file is rejected, the
        # key and both its lines are named beside any malformed line, and
        # nothing is written
        cfg = write_cfg(tmp_path / "c.cfg", "n_r = 32\nN = 5\nn_r = 40\nn_theta: 32\n")
        out = tmp_path / "run"
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "line 3: n_r repeats line 1" in err
        assert "line 4: 'n_theta: 32'" in err
        assert not out.exists()

    def test_malformed_json_config(self, tmp_path, capsys):
        # a file that opens with { is read as a manifest, and one that is
        # not JSON is rejected input, with nothing written
        cfg = write_cfg(tmp_path / "c.json", '{"config": {"n_r": 32,}\n')
        out = tmp_path / "run"
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 2
        assert "is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_json_config_without_config_object(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", '{"subcommand": "minimize", "seed": 0}\n')
        out = tmp_path / "run"
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 2
        assert "lacks a 'config' object" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, capsys):
        assert cli.run("constants", config_path="/no/such/file.cfg") == 2

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"\xff\xfeN = 5\n")
        out = tmp_path / "run"
        assert cli.run("constants", config_path=str(path), output_dir=str(out)) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert cli.run("fabricate") == 2

    def test_descending_alpha_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha_list = 3.0, 1.0\n")
        assert cli.run("sweep", config_path=cfg) == 2

    def test_validation_writes_no_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", "nonsense = 1\n")
        assert cli.run("constants", config_path=cfg, output_dir=str(out)) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "key, text, number",
        [("alpha_list", "1e999", "[1e999]"), ("a", "nan", "NaN"), ("grad_tol", "inf", "Infinity")],
    )
    def test_nonfinite_value_rejected(self, key, text, number, tmp_path, capsys):
        # from config text, in place of the key's finite line, and from a
        # replayed manifest's JSON numbers
        body = override(SMALL_SOLVER + "alpha_list = 1.0\n", f"{key} = {text}\n")
        cfg = write_cfg(tmp_path / "c.cfg", body)
        replay = write_cfg(
            tmp_path / "manifest.json",
            '{"config": {"n_r": 32, "n_theta": 32, "alpha_list": [1.0], "%s": %s}}' % (key, number),
        )
        for path in (cfg, replay):
            out = tmp_path / "run"
            assert cli.run("sweep", config_path=path, output_dir=str(out)) == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert f"invalid value for {key}" in err and "not a finite number" in err

    def test_empty_list_rejected(self, tmp_path, capsys):
        # from the flag and from a replayed manifest's empty array
        replay = write_cfg(
            tmp_path / "manifest.json", '{"config": {"n_r": 32, "n_theta": 32, "alpha_list": []}}'
        )
        out = tmp_path / "run"
        for argv in (["--n-r", "32", "--n-theta", "32", "--alpha-list", ""], ["--config", replay]):
            assert cli.main(["sweep", *argv, "--out", str(out)]) == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert "invalid value for alpha_list" in err and "(empty list)" in err

    @pytest.mark.parametrize("key, number", [("n_r", "32.7"), ("max_iters", "true"), ("seed", "2.9")])
    def test_nonint_value_rejected(self, key, number, tmp_path, capsys):
        # a replayed manifest's JSON float or bool is refused, not truncated
        replay = write_cfg(
            tmp_path / "manifest.json",
            '{"config": {"n_r": 32, "n_theta": 32, "alpha_list": [1.0], "%s": %s}}' % (key, number),
        )
        out = tmp_path / "run"
        assert cli.run("sweep", config_path=replay, output_dir=str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"invalid value for {key}" in err and "not an integer" in err

    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_nonpositive_radius_rejected(self, radius, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["constants", "--R", radius, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid value for R" in err and "not positive" in err
        assert not out.exists()

    def test_unknown_override_keys_listed(self, capsys):
        assert cli.run("constants", overrides={"N": "5", "bogus": "1"}) == 2
        assert "bogus" in capsys.readouterr().err

    def test_foreign_override_key_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER)
        assert cli.run("minimize", config_path=cfg, overrides={"alpha_list": "1, 2"}) == 2
        assert "alpha_list" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["constants", "nehari-check", "instanton-verify"])
    def test_seed_flag_rejected_without_solver(self, subcommand, tmp_path, capsys):
        # the solver's settings are no flags of these subcommands, so
        # argparse refuses them as foreign flags
        for flag, value in (("seed", "3"), ("threads", "2")):
            out = tmp_path / flag
            with pytest.raises(SystemExit) as exc:
                cli.main([subcommand, "--out", str(out), "--" + flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["minimize", "sweep", "alpha0"])
    def test_solver_defaults_are_solve_config(self, subcommand):
        raw = {} if subcommand == "minimize" else {"alpha_list": "1"}
        cfg = cli.resolve_config(subcommand, raw, {})
        want = dataclasses.asdict(solver.SolveConfig())
        assert {k: cfg[k] for k in want} == want
        assert [type(cfg[k]) for k in want] == [type(v) for v in want.values()]

    def test_out_of_range_setting_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER)
        for flag, value in (("--tau", "0.5"), ("--threads", "0")):
            out = tmp_path / flag.strip("-")
            assert cli.main(["minimize", "--config", cfg, "--out", str(out), flag, value]) == 2
            assert f"{flag.strip('-')} " in capsys.readouterr().err
            assert not out.exists()


class TestMinimizeCommand:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.5\n")
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["converged"] is True
        assert res["alpha"] == 0.5
        assert res["manifest"] == "manifest.json"
        assert res["S_alpha_est"] > 0
        assert len(res["start_values"]) == 2
        field = load_field_snapshot(out / "field_final.csv", out / "field_final.json")
        assert field.values.shape == (32, 32)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.5
        assert manifest["summary"]["S_alpha_est"] == res["S_alpha_est"]

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SOLVER.replace("grad_tol = 3e-4", "grad_tol = 1e-13").replace(
                "max_iters = 150", "max_iters = 5"
            )
            + "alpha = 3.0\n",
        )
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 3
        # outputs and the manifest still land, with the failure recorded
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"] is not None
        assert (out / "result.json").exists()

    def test_per_start_record(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SOLVER.replace("max_iters = 150", "max_iters = 2") + "alpha = 3.0\n",
        )
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 3
        res = json.loads((out / "result.json").read_text())
        assert len(res["starts"]) == len(res["start_values"]) == 2
        for rec in res["starts"]:
            assert set(rec) == {"iterations", "level", "grad_norm", "stop_reason"}
            assert rec["stop_reason"] in ("converged", "max_iters", "line_search")
        bubble = res["starts"][1]
        assert (bubble["stop_reason"], bubble["iterations"]) == ("max_iters", 2)
        # the winner is the earliest start within TIE_RTOL of the lowest,
        # and the result reports its level exactly
        lowest = min(r["level"] for r in res["starts"])
        winner = next(r for r in res["starts"] if r["level"] <= lowest + solver.TIE_RTOL * abs(lowest))
        assert res["S_alpha_est"] == winner["level"]
        manifest = json.loads((out / "manifest.json").read_text())
        reasons = ", ".join(r["stop_reason"] for r in res["starts"])
        assert manifest["failure"].endswith(f"stop reasons by start: {reasons})")

    def test_result_is_the_solve_record(self, tmp_path, capsys, monkeypatch):
        # result.json is SolveResult less its minimizer, the field_final
        # snapshot, plus the run's alpha and manifest; the triple keeps N
        solves = []
        real = cli.minimize
        monkeypatch.setattr(cli, "minimize", lambda *args: solves.append(real(*args)) or solves[-1])
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 3.0\n")
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 0
        res = json.loads((out / "result.json").read_text())
        fields = {f.name for f in dataclasses.fields(solver.SolveResult)}
        assert set(res) == fields - {"minimizer"} | {"alpha", "manifest"}
        (solved,) = solves
        assert res["triple"] == dataclasses.asdict(solved.triple)
        assert res["triple"]["N"] == 5
        assert res["diagnostics"]["fit"] == dataclasses.asdict(solved.diagnostics.fit)

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.0\n")
        assert cli.run("minimize", config_path=cfg, output_dir=str(out), seed=-1) == 2
        assert "seed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        in_file = write_cfg(tmp_path / "neg.cfg", SMALL_SOLVER.replace("seed = 0", "seed = -1"))
        assert cli.run("minimize", config_path=in_file) == 2

    def test_descent_blowup_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            solver, "_energy_solver", lambda grid, a: lambda arr: np.full_like(arr, np.inf)
        )
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 2.0\n")
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "not finite" in manifest["failure"]

    def test_lost_positivity_exits_3(self, tmp_path, capsys):
        # a R^2 = 1e-26: the solve's g . Q^-1 g comes out negative, which
        # must stop the descent rather than read as a zero gradient
        out = tmp_path / "run"
        code = cli.run(
            "minimize",
            output_dir=str(out),
            overrides={"n_r": 32, "n_theta": 32, "R": 1e-13, "alpha": 1e14},
        )
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "Q^-1 solve lost accuracy" in manifest["failure"]

    def test_internal_error_exits_1_with_manifest(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(cli, "minimize", broken)
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 2.0\n")
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 1
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"] == "RuntimeError: kernel exploded"
        assert manifest["config"]["alpha"] == 2.0
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: kernel exploded" in err

    def test_seed_override_wins(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.0\n")
        cli.run("minimize", config_path=cfg, output_dir=str(out), seed=17)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 17
        assert "seed" not in manifest and "threads" not in manifest

    def test_seed_override_replays(self, tmp_path, capsys):
        # the fifth start is the seeded random one, so start_values see the seed
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SOLVER.replace("n_starts = 2", "n_starts = 5") + "alpha = 0.0\n",
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.run("minimize", config_path=cfg, output_dir=str(out1), seed=7)
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        cli.run("minimize", config_path=str(out1 / "manifest.json"), output_dir=str(out2))
        first = json.loads((out1 / "result.json").read_text())
        replay = json.loads((out2 / "result.json").read_text())
        assert len(first["start_values"]) == 5
        assert replay["start_values"] == first["start_values"]

    def test_manifest_with_top_level_seed_replays(self, tmp_path, capsys):
        # older manifests also echoed seed and threads at the top level; a
        # replay reads only the config block, so they give the same bytes
        cfg = write_cfg(
            tmp_path / "c.cfg",
            SMALL_SOLVER.replace("n_starts = 2", "n_starts = 5") + "alpha = 0.0\n",
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.run("minimize", config_path=cfg, output_dir=str(out1), seed=7) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        older = dict(manifest, seed=manifest["config"]["seed"], threads=manifest["config"]["threads"])
        replay = write_cfg(tmp_path / "older.json", json.dumps(older))
        assert cli.run("minimize", config_path=replay, output_dir=str(out2)) == 0
        for name in ("result.json", "field_final.csv", "field_final.json"):
            assert (out2 / name).read_bytes() == (out1 / name).read_bytes()
        again = json.loads((out2 / "manifest.json").read_text())
        assert again["config"] == manifest["config"] and "seed" not in again

    def test_skipped_fit_writes_strict_json(self, tmp_path, capsys):
        # at alpha = 0 the constant wins, its maximum is interior and the
        # instanton fit is skipped, leaving a NaN w_norm to serialize
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.0\n")
        assert cli.run("minimize", config_path=cfg, output_dir=str(out)) == 0
        json.loads((out / "manifest.json").read_text(), parse_constant=reject_constant)
        res = json.loads((out / "result.json").read_text(), parse_constant=reject_constant)
        assert res["diagnostics"]["fit"] is None
        assert res["diagnostics"]["w_norm"] is None
        # the diagnostics are the solver's record, key for field
        fields = {f.name for f in dataclasses.fields(solver.BlowupDiagnostics)}
        assert set(res["diagnostics"]) == fields


class TestArithmeticOverflow:
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "subcommand, extra, names",
        [
            ("minimize", "alpha = 1e200\n", "descent start"),
            ("minimize", "alpha = 0.0\na = 1e300\n", "OverflowError"),
            ("minimize", "alpha = 0.0\na = 1e-300\n", "ZeroDivisionError"),
            ("sweep", "alpha_list = 0, 1e300\n", "descent start"),
            ("alpha0", "alpha_list = 0, 1e300\n", "descent start"),
            ("alpha0", "alpha_list = 2.0, 3.5\na = 1e300\n", "OverflowError"),
        ],
        ids=["alpha1e200", "a1e300", "a1e-300", "sweep-alpha1e300", "alpha0-alpha1e300", "alpha0-a1e300"],
    )
    def test_overflow_exits_3_with_manifest(self, subcommand, extra, names, tmp_path, capsys):
        # a validated config whose descent overflows is a numerical failure:
        # exit 3 and a manifest naming it, never a validation error or a crash
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER.replace("a = 1.0\n", "") + extra)
        assert cli.run(subcommand, config_path=cfg, output_dir=str(out)) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"] and names in manifest["failure"]
        assert "accuracy failure" in capsys.readouterr().err


class TestSweepCommand:
    def test_outputs_and_replay(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha_list = 0.0, 0.8, 1.6\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.run("sweep", config_path=cfg, output_dir=str(out1)) == 0
        body = (out1 / "sweep.csv").read_bytes()
        header = body.split(b"\n", 1)[0].decode()
        assert header == "alpha,S_est,converged,M,delta_M,fit_eps,fit_C,w_norm,boundary_flag"
        assert len(body.decode().strip().splitlines()) == 4
        # replaying the manifest reproduces the CSV body byte for byte
        assert cli.run("sweep", config_path=str(out1 / "manifest.json"), output_dir=str(out2)) == 0
        assert (out2 / "sweep.csv").read_bytes() == body
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert "sweep.csv" in manifest["outputs"]
        assert "field_000.csv" in manifest["outputs"]
        assert manifest["summary"]["monotone_violations"] == []
        # flags serialize as 0/1, floats at %.17g
        row = body.decode().strip().splitlines()[1].split(",")
        assert row[2] in ("0", "1")
        assert float(row[1]) == pytest.approx(1.9432084455634135, rel=1e-13)

    def test_level_decrease_exits_3(self, tmp_path, capsys, monkeypatch):
        real = cli.sweep_alpha

        def violating(*args, **kwargs):
            return replace(real(*args, **kwargs), monotone_violations=(1,))

        monkeypatch.setattr(cli, "sweep_alpha", violating)
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha_list = 0.0, 1.0\n")
        out = tmp_path / "run"
        assert cli.run("sweep", config_path=cfg, output_dir=str(out)) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"] is not None
        assert manifest["summary"]["monotone_violations"] == [1]

    def test_snapshot_per_alpha(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha_list = 0.0, 1.0\n")
        out = tmp_path / "run"
        cli.run("sweep", config_path=cfg, output_dir=str(out))
        f0 = load_field_snapshot(out / "field_000.csv", out / "field_000.json")
        f1 = load_field_snapshot(out / "field_001.csv", out / "field_001.json")
        assert f0.values.shape == f1.values.shape == (32, 32)
        # both alphas sit on the constant branch here, so the normalized
        # minimizers coincide while the levels do not
        levels = [
            float(line.split(",")[1])
            for line in (out / "sweep.csv").read_text().strip().splitlines()[1:]
        ]
        assert levels[1] > levels[0]


    def test_unconverged_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", override(SMALL_SOLVER, "alpha_list = 3.0\nmax_iters = 2\n"))
        out = tmp_path / "run"
        assert cli.run("sweep", config_path=cfg, output_dir=str(out)) == 3
        assert "alpha = 3" in capsys.readouterr().err
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[2] == "0"
        assert (out / "field_000.csv").exists() and (out / "field_000.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "stopped above grad_tol" in manifest["failure"]


class TestSnapshotReuse:
    def test_bitwise_equal_snapshot_is_copied(self, tmp_path, monkeypatch):
        # a staged field with the bits of one already written copies its
        # pair; one that differs only by -0.0 prints -0 and is formatted
        grid = build_grid(5, 1.0, 32, 32, 3.0)
        values = np.full((32, 32), 0.5)
        values[0] = 0.0
        signed = values.copy()
        signed[0, 3] = -0.0
        real, formatted = cli.save_field_snapshot, []

        def counted(field, *paths):
            formatted.append(field)
            return real(field, *paths)

        monkeypatch.setattr(cli, "save_field_snapshot", counted)
        staged = {"a": Field(grid, values), "b": Field(grid, values.copy()), "c": Field(grid, signed)}
        written = cli._write_outputs(str(tmp_path), staged)
        assert written == ["a.csv", "a.json", "b.csv", "b.json", "c.csv", "c.json"]
        assert formatted == [staged["a"], staged["c"]]
        for ext in (".csv", ".json"):
            assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()
        assert b",-0\r\n" in (tmp_path / "c.csv").read_bytes()
        assert b",-0\r\n" not in (tmp_path / "a.csv").read_bytes()


class TestAlpha0Command:
    def test_bracket_from_alpha_list(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha_list = 2.0, 3.5\n")
        out = tmp_path / "run"
        assert cli.run("alpha0", config_path=cfg, output_dir=str(out)) == 0
        doc = json.loads((out / "alpha0.json").read_text())
        lo_a, lo_s = doc["certificate_below"]
        hi_a, hi_s = doc["certificate_above"]
        assert lo_a <= doc["alpha_hat"] <= hi_a
        assert lo_s < doc["threshold"] <= hi_s
        assert doc["analytic_curvature_bound"] == pytest.approx(0.5092958178940651)
        assert doc["manifest"] == "manifest.json"
        assert len(doc["evaluations"]) >= 8
        # the document is the solver's record, key for field
        assert set(doc) - {"manifest"} == {f.name for f in dataclasses.fields(solver.Alpha0Result)}

    def test_bad_bracket(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha_list = 3.5, 2.0\n")
        assert cli.run("alpha0", config_path=cfg) == 2

    def test_lower_bracket_over_the_threshold_exits_3(self, tmp_path, capsys):
        # the level at the lower bracket is already over the threshold: an
        # accuracy failure that names the bracket to move, with only the
        # manifest written
        out = tmp_path / "run"
        argv = ["alpha0", "--n-r", "32", "--n-theta", "32", "--alpha-list", "3.5,4", "--out", str(out)]
        assert cli.main(argv) == 3
        assert "move the lower bracket down" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == []
        failure = manifest["failure"]
        assert failure.startswith("S_est(3.5) = ")
        assert failure.endswith(" is not below the threshold 11.113077; move the lower bracket down")
        assert float(failure.split()[2]) >= 11.113077

    def test_unconverged_exits_3(self, tmp_path, capsys):
        # at a = 1 the constant wins every solve and is critical at once;
        # at a = 8 a nonconstant field wins below the threshold, and two
        # iterations leave it unconverged
        cfg = write_cfg(
            tmp_path / "c.cfg", "n_r = 32\nn_theta = 32\na = 8.0\nalpha_list = 0.0, 3.5\nmax_iters = 2\n"
        )
        out = tmp_path / "run"
        assert cli.run("alpha0", config_path=cfg, output_dir=str(out)) == 3
        assert "stopped above grad_tol" in capsys.readouterr().err
        doc = json.loads((out / "alpha0.json").read_text())
        assert all(len(row) == 3 for row in doc["evaluations"])
        assert not all(converged for _, _, converged in doc["evaluations"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert "stopped above grad_tol" in manifest["failure"]
        assert manifest["outputs"] == ["alpha0.json"]


class TestNehariCheckCommand:
    def test_clean_triples(self, tmp_path, capsys):
        triples = tmp_path / "t.csv"
        triples.write_text(
            "a_bar,b,c,N\n1.0,0.5,1.0,5\n2.0,0.0,1.5,5\n3.0,1.2,0.7,6\n0.3,4.0,0.01,7\n"
        )
        out = tmp_path / "run"
        code = cli.run(
            "nehari-check", overrides={"triples": str(triples)}, output_dir=str(out)
        )
        assert code == 0
        lines = (out / "nehari_records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert set(rec) == {"row", "t", "psi", "I", "beta", "delta", "lb", "ub", "violations"}
        assert rec["lb"] <= rec["I"] <= rec["ub"]
        assert rec["violations"] == []
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"rows": 4, "violations": 0}

    def test_bound_values_match_module(self, tmp_path, capsys):
        from neumannlab.nehari import NormTriple, big_I, lower_bound, project_t

        triples = tmp_path / "t.csv"
        triples.write_text("a_bar,b,c,N\n1.7,0.9,1.3,5\n")
        out = tmp_path / "run"
        cli.run("nehari-check", overrides={"triples": str(triples)}, output_dir=str(out))
        rec = json.loads((out / "nehari_records.jsonl").read_text())
        triple = NormTriple(1.7, 0.9, 1.3, 5)
        assert rec["I"] == pytest.approx(big_I(triple), rel=1e-15)
        assert rec["lb"] == pytest.approx(lower_bound(triple), rel=1e-15)
        assert rec["t"] == pytest.approx(project_t(triple), rel=1e-15)

    def test_violated_bound_exits_3_naming_the_row(self, tmp_path, capsys, monkeypatch):
        # valid triples cannot violate the bounds, so one lower bound is
        # raised past its level
        from neumannlab.nehari import big_I

        real = cli.lower_bound
        monkeypatch.setattr(
            cli, "lower_bound", lambda t: 2.0 * big_I(t) if t.a_bar == 2.0 else real(t)
        )
        triples = tmp_path / "t.csv"
        triples.write_text(TRIPLES)
        out = tmp_path / "run"
        code = cli.run("nehari-check", overrides={"triples": str(triples)}, output_dir=str(out))
        assert code == 3
        assert "1 of 2 triples violate the bounds" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["manifest.json", "nehari_records.jsonl"]
        records = [json.loads(line) for line in (out / "nehari_records.jsonl").read_text().splitlines()]
        assert [(r["row"], r["violations"]) for r in records] == [(0, []), (1, ["below lower bound"])]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"] == "1 of 2 triples violate the bounds"
        assert manifest["summary"] == {"rows": 2, "violations": 1}

    def test_level_above_upper_bound_exits_3(self, tmp_path, capsys, monkeypatch):
        # as above, with one upper bound lowered past its level
        from neumannlab.nehari import big_I

        real = cli.upper_bound
        monkeypatch.setattr(
            cli, "upper_bound", lambda t: 0.5 * big_I(t) if t.a_bar == 2.0 else real(t)
        )
        triples = tmp_path / "t.csv"
        triples.write_text(TRIPLES)
        out = tmp_path / "run"
        code = cli.run("nehari-check", overrides={"triples": str(triples)}, output_dir=str(out))
        assert code == 3
        assert "1 of 2 triples violate the bounds" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["manifest.json", "nehari_records.jsonl"]
        records = [json.loads(line) for line in (out / "nehari_records.jsonl").read_text().splitlines()]
        assert [(r["row"], r["violations"]) for r in records] == [(0, []), (1, ["above upper bound"])]
        assert json.loads((out / "manifest.json").read_text())["summary"] == {"rows": 2, "violations": 1}

    def test_header_mismatch(self, tmp_path, capsys):
        triples = tmp_path / "t.csv"
        triples.write_text("x,y,z\n1,2,3\n")
        assert cli.run("nehari-check", overrides={"triples": str(triples)}) == 2

    def test_bad_row(self, tmp_path, capsys):
        # a non-finite entry is rejected like a non-number, and a triple
        # outside its domain like a malformed one, naming its row
        for bad in (
            "1.0,0.5,frog,5", "1.0,nan,1.0,5", "1.0,0.5,inf,5", "1.0,0.5,1.0,5.0",
            "1.0,0.5,-1.0,5", "1.0,-0.5,1.0,5", "0.0,0.5,1.0,5", "1.0,0.5,1.0,4",
            "1.0,0.5,1.0,31",
        ):
            triples = tmp_path / "t.csv"
            triples.write_text(f"a_bar,b,c,N\n1.0,0.5,1.0,5\n{bad}\n")
            out = tmp_path / "run"
            code = cli.run("nehari-check", overrides={"triples": str(triples)}, output_dir=str(out))
            assert code == 2, bad
            assert "triples row 1" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_key(self, capsys):
        assert cli.run("nehari-check") == 2
        assert "triples" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\xfea_bar,b,c,N\n"])
    def test_unreadable_triples_file(self, content, tmp_path, capsys):
        triples = tmp_path / "t.csv"
        if content is not None:
            triples.write_bytes(content)
        out = tmp_path / "run"
        code = cli.run("nehari-check", overrides={"triples": str(triples)}, output_dir=str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read triples file" in err and str(triples) in err
        assert not out.exists()


class TestInstantonVerifyCommand:
    def test_csv_per_expansion(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.run(
            "instanton-verify",
            output_dir=str(out),
            overrides={"eps_list": "0.003125, 0.00625, 0.0125"},
        )
        assert code == 0
        names = sorted(p.name for p in out.glob("expansion_*.csv"))
        assert names == [
            "expansion_critical_mass.csv",
            "expansion_delta.csv",
            "expansion_gradient_mass.csv",
            "expansion_level_ratio.csv",
            "expansion_trace_mass.csv",
        ]
        lines = (out / "expansion_delta.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,value,extrapolated_coefficient,expected_coefficient,rel_error"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert float(row[4]) < 1e-2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["worst_rel_error"] < 0.05

    def test_default_ladder_is_in_units_of_r(self, tmp_path, capsys):
        # the ladder scales with R, so every fit, and its relative error,
        # is the R = 1 fit's
        for R in (1.0, 0.2):
            assert cli.run("instanton-verify", output_dir=str(tmp_path / str(R)),
                           overrides={"R": R}) == 0
        paths = sorted((tmp_path / "1.0").glob("expansion_*.csv"))
        assert len(paths) == 5
        for path in paths:
            rows = [list(csv.DictReader(p.read_text().splitlines()))
                    for p in (path, tmp_path / "0.2" / path.name)]
            want, got = ([float(r["rel_error"]) for r in rs] for rs in rows)
            assert got == pytest.approx(want, rel=1e-9)
            assert [float(r["eps"]) for r in rows[1]] == pytest.approx(
                [0.2 * float(r["eps"]) for r in rows[0]], rel=1e-15
            )

    def test_non_geometric_ladder_rejected(self, capsys):
        code = cli.run("instanton-verify", overrides={"eps_list": "0.001, 0.002, 0.005"})
        assert code == 2

    def test_quadrature_keys_are_not_settable(self, capsys):
        # the cap rule's resolution is CapQuadrature's own, not a config key
        for key in ("n_rho", "n_quad_theta"):
            with pytest.raises(cli.ConfigurationError, match=f"unknown keys: {key}"):
                cli.resolve_config("instanton-verify", {key: "24"}, {})


class TestThreads:
    def test_nonpositive_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER)
        out = tmp_path / "run"
        assert cli.run("minimize", config_path=cfg, output_dir=str(out), threads=0) == 2
        assert "threads" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_replays_thread_count(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.5\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["minimize", "--config", cfg, "--out", str(out1), "--threads", "2"]) == 0
        assert cli.run("minimize", config_path=str(out1 / "manifest.json"), output_dir=str(out2)) == 0
        for out in (out1, out2):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["threads"] == 2
            assert "threads" not in manifest

    def test_threaded_result_matches_serial(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 1.0\n")
        o1, o2 = tmp_path / "s", tmp_path / "p"
        assert cli.run("minimize", config_path=cfg, output_dir=str(o1), threads=1) == 0
        assert cli.run("minimize", config_path=cfg, output_dir=str(o2), threads=2) == 0
        # the calling thread and the pool write the same bytes
        assert (o1 / "result.json").read_text() == (o2 / "result.json").read_text()


    @pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
    def test_cli_pins_blas_threads(self, preset, want):
        # a fresh process, since numpy has loaded its BLAS in this one
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        read = (
            "import os, neumannlab.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", read], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.split() == [want, "1"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt and RUSAGE_THREAD")
class TestFreedPages:
    # ten kernel passes and Q^{-1} solves at 128^2, in a fresh process so
    # that no earlier run has set the allocator, print their page faults
    PASSES = """
import resource, numpy as np, neumannlab.cli as cli, neumannlab.solver as s
from neumannlab.constants import make_params
from neumannlab.domain_grid import build_grid, Field
cli._keep_freed_pages()
g, p = build_grid(5, 1.0, 128, 128, stretch=4.0), make_params(5, 1.0, 3.5)
u = Field(g, 0.2 + np.random.default_rng(0).random((128, 128)))
solve = s._energy_solver(g, 1.0)
solve(s.gradient_I(u, p)[1])
f0 = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(10):
    solve(s.gradient_I(u, p)[1])
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - f0)
"""

    def faults(self, **preset):
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env.update(preset, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", self.PASSES], env=env, capture_output=True, text=True, check=True,
            timeout=120,
        )
        return int(out.stdout)

    def test_passes_keep_their_pages(self):
        # a pass and a solve allocate about 2 MB of temporaries, 500 pages
        assert self.faults() < 100

    def test_exported_threshold_wins(self):
        # the caller's trim threshold of 0 gives every freed page back
        assert self.faults(MALLOC_TRIM_THRESHOLD_="0") > 1000


class TestArgumentParser:
    def test_flag_overrides(self, capsys):
        assert cli.main(["constants", "--N", "6"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["N"] == 6

    def test_alpha_list_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER)
        out = tmp_path / "run"
        code = cli.main(
            [
                "sweep",
                "--config",
                cfg,
                "--out",
                str(out),
                "--alpha-list",
                "0.0,1.0",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 1.0]

    def test_flag_beats_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.5\n")
        out = tmp_path / "run"
        cli.main(["minimize", "--config", cfg, "--out", str(out), "--alpha", "1.5"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 1.5

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_seed_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", SMALL_SOLVER + "alpha = 0.0\n")
        out = tmp_path / "run"
        cli.main(["minimize", "--config", cfg, "--out", str(out), "--seed", "23"])
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 23
