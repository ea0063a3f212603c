"""Tests for the command-line interface."""

import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import campaign
from tests.helpers import spy_campaigns


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "5"])
        args = build_parser().parse_args(["figure", "10"])
        assert args.number == 10

    def test_figure_accepts_fig_labels(self):
        assert build_parser().parse_args(["figure", "fig06"]).number == 6
        assert build_parser().parse_args(["figure", "fig13"]).number == 13
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig05"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figx"])

    def test_campaign_flags(self):
        args = build_parser().parse_args(
            ["figure", "6", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True
        args = build_parser().parse_args(["run", "astar"])
        assert args.jobs is None and args.no_cache is False

    @pytest.mark.parametrize("command", [["figure", "6"], ["report"]])
    def test_core_only_where_it_is_read(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--core", "skylake-2x"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --core" in capsys.readouterr().err
        for single in (["run", "astar"], ["compare", "astar", "fvp"],
                       ["profile", "astar"]):
            args = build_parser().parse_args(single + ["--core",
                                                       "skylake-2x"])
            assert args.core == "skylake-2x"

    def test_sweep_reads_core_as_cores(self):
        # Without a --core of its own, argparse takes --core as the
        # unambiguous prefix of --cores: the sweep runs that core.
        args = build_parser().parse_args(
            ["sweep", "fvp", "--core", "skylake-2x"])
        assert args.cores == ["skylake-2x"]
        assert not hasattr(args, "core")

    @pytest.mark.parametrize("number", ["5", "8", "9", "14"])
    def test_report_takes_only_the_figures_it_renders(self, number,
                                                      capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["report", "--figures", "6", number])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["report", "--figures", "6", "7", "10", "11", "12", "13"])
        assert args.figures == [6, 7, 10, 11, 12, 13]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fvp", "lvp"])
        assert args.predictors == ["fvp", "lvp"]
        assert args.cores == ["skylake"]
        with pytest.raises(SystemExit):  # no predictor, nothing to sweep
            build_parser().parse_args(["sweep"])

    def test_sweep_resume_command_names_the_job_key(self, monkeypatch):
        from repro.cli import _sweep_command

        monkeypatch.setenv("REPRO_WARMUP", "700")
        args = build_parser().parse_args(
            ["sweep", "fvp", "lvp", "--cores", "skylake", "skylake-2x",
             "--length", "3000", "--per-category", "2", "--seed", "5",
             "--cache-dir", "my cache", "--jobs", "3"])
        # The resolved warmup is spelled out, so a later REPRO_WARMUP
        # cannot change the job keys; --jobs is not part of a key.
        assert shlex.join(_sweep_command(args)) == (
            "repro sweep fvp lvp --cores skylake skylake-2x "
            "--length 3000 --warmup 700 --per-category 2 --seed 5 "
            "--cache-dir 'my cache'")
        args = build_parser().parse_args(
            ["sweep", "fvp", "--length", "3000", "--warmup", "800"])
        assert _sweep_command(args) == [
            "repro", "sweep", "fvp", "--cores", "skylake",
            "--length", "3000", "--warmup", "800"]


class TestCommands:
    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "1196" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "cassandra" in out

    def test_list_category(self, capsys):
        assert main(["list", "--category", "Server"]) == 0
        out = capsys.readouterr().out
        assert "hadoop" in out and "leela17" not in out

    def test_run(self, capsys):
        code = main(["run", "astar", "--length", "4000",
                     "--warmup", "1000", "--no-cache"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "doom", "--length", "4000"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_compare(self, capsys):
        code = main(["compare", "astar", "baseline", "lvp",
                     "--length", "4000", "--warmup", "1000", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lvp" in out and "baseline" in out

    def test_sweep(self, capsys):
        code = main(["sweep", "fvp", "lvp", "--length", "3000",
                     "--warmup", "800", "--per-category", "1",
                     "--jobs", "1", "--no-cache"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "fvp" in out and "lvp" in out and "geomean gain" in out
        assert "resume with" not in err  # no cache, nothing to resume

    def test_sweep_per_workload(self, capsys):
        code = main(["sweep", "fvp", "--length", "3000",
                     "--warmup", "800", "--per-category", "1",
                     "--jobs", "1", "--no-cache", "--per-workload"])
        assert code == 0
        assert "geomean" in capsys.readouterr().out


class TestOneCampaignPerCommand:
    """Each simulating command runs its slice of the evaluation grid
    as one campaign, which builds each distinct trace once."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", [
        ["run", "astar"],
        ["compare", "astar", "lvp", "fvp", "mr-8kb"],
        ["profile", "astar"],
        ["figure", "9", "--per-category", "1"],
        ["sweep", "fvp", "mr-8kb", "--cores", "skylake", "skylake-2x",
         "--per-category", "1"],
        ["report", "--per-category", "1", "--output", os.devnull],
    ])
    def test_one_campaign_one_build_per_workload(self, command, jobs,
                                                 monkeypatch, capsys):
        builds = []
        real = campaign.build_trace

        def spy(profile, length):
            builds.append(profile.name)
            return real(profile, length)

        monkeypatch.setattr(campaign, "build_trace", spy)
        campaigns = spy_campaigns(monkeypatch)
        assert main(command + ["--length", "3000", "--warmup", "800",
                               "--no-cache", "--jobs", jobs]) == 0
        capsys.readouterr()
        assert len(campaigns) == 1
        assert sorted(builds) == sorted(
            {job.workload for job in campaigns[0]})


#: Runs FIGURE, then RUN on the trace file named by argv[2], with numpy
#: blocked as argv[1] says, and exits with the first non-zero code.
_NUMPY_BLOCK_SCRIPT = textwrap.dedent("""
    import importlib.abc, importlib.machinery, sys

    class NumpyTripwire(importlib.abc.MetaPathFinder, importlib.abc.Loader):
        # Finds numpy, so a probe for it sees it installed, and fails
        # the import itself.
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] != "numpy":
                return None
            return importlib.machinery.ModuleSpec(name, self)

        def create_module(self, spec):
            raise ImportError(spec.name + " imported by a default run")

        def exec_module(self, module):
            pass

    block, trace_file = sys.argv[1:]
    if block == "absent":
        sys.modules["numpy"] = None
    elif block == "tripwire":
        sys.meta_path.insert(0, NumpyTripwire())
    from repro.cli import main
    for argv in (FIGURE, RUN + ["--trace-file", trace_file]):
        code = main(argv)
        if code:
            sys.exit(code)
""")


class TestNoNumpyOnTheDefaultPath:
    """No command imports numpy: the default timing loop is the scalar
    one, and only an explicit ``backend="vector"`` reaches the numpy
    backend (docs/VECTOR.md).  Forked pool workers inherit the block,
    so the figure covers the pool and ``run --jobs 1`` the serial
    lane.  ``absent`` is an interpreter without numpy; ``tripwire``
    keeps numpy findable, so a loop chosen by probing for numpy would
    import it and fail."""

    FIGURE = ["figure", "10", "--per-category", "1", "--length", "3000",
              "--warmup", "800", "--no-cache", "--jobs", "2"]
    RUN = ["run", "astar", "--no-cache", "--jobs", "1"]

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("numpy-free") / "astar.rvt"
        assert main(["trace", "build", "astar", "--length", "3000",
                     "-o", str(path)]) == 0
        return path

    def _stdout(self, block, trace_file):
        script = (f"FIGURE = {self.FIGURE!r}\nRUN = {self.RUN!r}\n"
                  + _NUMPY_BLOCK_SCRIPT)
        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", script, block, str(trace_file)],
            capture_output=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(repo / "src")})
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    @pytest.fixture(scope="class")
    def unblocked(self, trace_file):
        return self._stdout("none", trace_file)

    @pytest.mark.parametrize("block", ["absent", "tripwire"])
    def test_same_bytes_without_numpy(self, block, trace_file, unblocked):
        out = self._stdout(block, trace_file)
        assert b"Figure 10" in out and b"speedup over baseline" in out
        assert out == unblocked


class TestCacheCommand:
    def test_run_populates_cache_then_rerun_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "astar", "--length", "3000", "--warmup", "800",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "last run: 2 hits, 0 misses, 0 simulations executed" in out

    def test_cache_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "astar", "--length", "3000", "--warmup", "800",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_stats_on_missing_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "nothing-here")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out

    def test_cache_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "astar", "--length", "3000", "--warmup", "800",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "prune", "--older-than", "1d",
                     "--cache-dir", cache_dir]) == 0
        assert "pruned 0" in capsys.readouterr().out
        assert main(["cache", "prune", "--older-than", "0",
                     "--cache-dir", cache_dir]) == 0
        assert "pruned 2" in capsys.readouterr().out

    def test_stats_report_lines(self, tmp_path, capsys):
        # Directory, inventory, the two counter lines and, only when
        # something was quarantined, a quarantine line.
        cache_dir = str(tmp_path / "cache")
        main(["run", "astar", "--length", "3000", "--warmup", "800",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        heads = [line.split(":")[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert heads == ["cache directory", "entries", "cumulative",
                         "last run"]

    def test_prune_requires_age(self, tmp_path, capsys):
        assert main(["cache", "prune",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_prune_age_forms(self):
        parser = build_parser()
        args = parser.parse_args(["cache", "prune", "--older-than", "30m"])
        assert args.older_than == 1800
        args = parser.parse_args(["cache", "prune", "--older-than", "7d"])
        assert args.older_than == 7 * 86400
        with pytest.raises(SystemExit):
            parser.parse_args(["cache", "prune", "--older-than", "sometime"])
        with pytest.raises(SystemExit):
            parser.parse_args(["cache", "prune", "--older-than", "-5m"])


class TestSharedTraceShapeFlags:
    """--length/--warmup/--seed/--trace-file come from one argparse
    parent, so every simulating subcommand accepts them uniformly."""

    @pytest.mark.parametrize("command", [
        ["run", "astar"],
        ["compare", "astar", "fvp"],
        ["profile", "astar"],
        ["sweep", "fvp"],
        ["figure", "6"],
        ["trace", "build", "astar"],
    ])
    def test_every_simulating_command_accepts_shape_flags(self, command):
        args = build_parser().parse_args(
            command + ["--length", "5000", "--warmup", "1000",
                       "--seed", "7", "--trace-file", "t.rvt"])
        assert args.length == 5000
        assert args.warmup == 1000
        assert args.seed == 7
        assert args.trace_file == "t.rvt"

    def test_seed_changes_results(self, capsys):
        assert main(["run", "astar", "--length", "3000",
                     "--warmup", "800", "--no-cache"]) == 0
        base = capsys.readouterr().out
        assert main(["run", "astar", "--length", "3000",
                     "--warmup", "800", "--seed", "99",
                     "--no-cache"]) == 0
        assert capsys.readouterr().out != base

    @pytest.mark.parametrize("command", [
        ["run", "astar"],
        ["compare", "astar", "fvp"],
        ["profile", "astar"],
        ["figure", "6"],
        ["sweep", "fvp"],
        ["report"],
    ])
    @pytest.mark.parametrize("length,warmup,message", [
        ("3000", "5000", "warmup 5000 must be < length 3000"),
        ("3000", "-1", "warmup -1 must be >= 0"),
        ("0", "0", "length 0 must be positive"),
    ])
    def test_invalid_shape_is_a_usage_error(self, command, length, warmup,
                                            message, capsys):
        assert main(command + ["--length", length, "--warmup", warmup,
                               "--no-cache"]) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("command,workload", [
        (["run", "mcf"], "mcf"),
        (["compare", "mcf", "fvp"], "mcf"),
        (["profile", "mcf"], "mcf"),
        (["sweep", "fvp", "--per-category", "1"], "bwaves"),
        (["figure", "6", "--per-category", "1"], "bwaves"),
        (["report", "--figures", "6", "--per-category", "1",
          "--output", os.devnull], "bwaves"),
    ])
    def test_zero_cycle_measured_region_is_a_usage_error(self, command,
                                                         workload, capsys):
        # The one measured op retires in the last warmup op's cycle, so
        # the measured region has no IPC to compare.
        assert main(command + ["--length", "2000", "--warmup", "1999",
                               "--no-cache"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"{workload}: warmup 1999 leaves a measured region of 0 "
            "cycles; lower --warmup")

    @pytest.mark.parametrize("name,command", [
        ("REPRO_LENGTH", ["run", "astar", "--warmup", "800"]),
        ("REPRO_WARMUP", ["run", "astar", "--length", "3000"]),
    ])
    def test_unparseable_env_is_a_usage_error(self, monkeypatch, capsys,
                                              name, command):
        monkeypatch.setenv(name, "abc")
        assert main(command + ["--no-cache"]) == 2
        assert capsys.readouterr().err.strip() == (
            f"{name} must be a whole number of micro-ops, got 'abc'")

    def test_length_env_is_read_only_when_used(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LENGTH", "abc")
        assert main(["list"]) == 0

    @pytest.mark.parametrize("command", [
        ["run", "astar", "--predictor"],
        ["sweep"],
    ])
    @pytest.mark.parametrize("spec", [
        "nope", "fvp:epoch=x", "fvp:bogus=1", "lvp:epoch=1",
        "fvp:epoch=400000"])
    def test_malformed_spec_fails_before_any_job(self, capsys, command,
                                                 spec):
        assert main(command + [spec, "--length", "3000", "--warmup",
                               "800", "--no-cache"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert repr(spec) in err

    def test_compare_oracle_and_override_specs(self, capsys):
        assert main(["compare", "astar", "fvp-oracle", "fvp:lt_size=4",
                     "--length", "3000", "--warmup", "800",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fvp-oracle" in out and "fvp:lt_size=4" in out

    def test_run_override_spec(self, capsys):
        assert main(["run", "astar", "--predictor", "fvp:epoch=1000",
                     "--length", "3000", "--warmup", "800",
                     "--no-cache"]) == 0
        assert "speedup over baseline" in capsys.readouterr().out

    def test_figure_rejects_trace_file(self, capsys):
        assert main(["figure", "6", "--trace-file", "t.rvt",
                     "--no-cache"]) == 2
        assert "--trace-file" in capsys.readouterr().err


class TestTraceCommand:
    def test_build_inspect_run_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "astar.rvt")
        assert main(["trace", "build", "astar", "--length", "3000",
                     "--output", path]) == 0
        out = capsys.readouterr().out
        assert "ops" in out and path in out

        assert main(["trace", "inspect", path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "v2 trace" in out and "verified" in out

        assert main(["run", "astar", "--trace-file", path,
                     "--warmup", "800", "--no-cache"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_inspect_stats(self, tmp_path, capsys):
        path = str(tmp_path / "astar.rvt")
        main(["trace", "build", "astar", "--length", "3000",
              "--output", path])
        capsys.readouterr()
        assert main(["trace", "inspect", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "loads" in out and "branches" in out

    def test_build_honours_seed(self, tmp_path, capsys):
        a = str(tmp_path / "a.rvt")
        b = str(tmp_path / "b.rvt")
        main(["trace", "build", "astar", "--length", "3000",
              "--output", a])
        main(["trace", "build", "astar", "--length", "3000",
              "--seed", "99", "--output", b])
        capsys.readouterr()
        from repro.trace.io import trace_file_hash

        assert trace_file_hash(a) != trace_file_hash(b)

    def test_inspect_missing_file(self, capsys):
        assert main(["trace", "inspect", "/nonexistent/x.rvt"]) == 1
        assert capsys.readouterr().err

    def test_build_rejects_trace_file_flag(self, tmp_path, capsys):
        assert main(["trace", "build", "astar",
                     "--trace-file", str(tmp_path / "x.rvt")]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_run_with_trace_file_ignores_length(self, tmp_path, capsys):
        path = str(tmp_path / "astar.rvt")
        main(["trace", "build", "astar", "--length", "3000",
              "--output", path])
        capsys.readouterr()
        # length comes from the file header, not --length.
        assert main(["run", "astar", "--trace-file", path,
                     "--length", "999999", "--warmup", "800",
                     "--no-cache"]) == 0
        assert "speedup" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_against_baseline(self, capsys):
        code = main(["profile", "milc", "--length", "4000",
                     "--warmup", "1000", "--no-cache", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPI breakdown" in out
        assert "retiring" in out and "head-waiting-on-load" in out
        assert "ΔCPI" in out and "IPC" in out

    def test_profile_against_named_predictor(self, capsys):
        code = main(["profile", "milc", "--predictor", "fvp",
                     "--against", "lvp", "--length", "4000",
                     "--warmup", "1000", "--no-cache", "--jobs", "1"])
        assert code == 0
        assert "lvp" in capsys.readouterr().out

    def test_profile_unknown_predictor(self, capsys):
        assert main(["profile", "milc", "--predictor", "nope",
                     "--no-cache"]) == 2
        assert "unknown predictor" in capsys.readouterr().err

    def test_profile_trace_export(self, tmp_path, capsys):
        json_path = tmp_path / "trace.json"
        csv_path = tmp_path / "trace.csv"
        code = main(["profile", "astar", "--length", "3000",
                     "--warmup", "800", "--no-cache", "--jobs", "1",
                     "--trace-json", str(json_path),
                     "--trace-csv", str(csv_path),
                     "--trace-events", "512"])
        assert code == 0
        import json as json_mod

        doc = json_mod.loads(json_path.read_text())
        assert doc["traceEvents"]
        assert csv_path.read_text().startswith("cycle,")
        out = capsys.readouterr().out
        assert "512 events" in out

    def test_profile_trace_export_replays_trace_file(self, tmp_path,
                                                     capsys):
        # The export reruns with the profiled run's warmup, which a
        # trace file derives from its own length, not from --length.
        path = str(tmp_path / "astar.rvt")
        assert main(["trace", "build", "astar", "--length", "3000",
                     "--output", path]) == 0
        json_path = tmp_path / "trace.json"
        assert main(["profile", "astar", "--trace-file", path,
                     "--no-cache", "--trace-json", str(json_path)]) == 0
        assert json_path.exists()
