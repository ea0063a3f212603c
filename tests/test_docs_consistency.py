"""Documentation consistency checks: the numbers and names the docs
promise must match the code."""

import argparse
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def read(name):
    return (REPO / name).read_text(encoding="utf-8")


class TestReadme:
    def test_quickstart_snippet_runs(self):
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README lost its quickstart snippet"
        snippet = blocks[0].replace('length=100_000', 'length=5_000') \
                           .replace('warmup=40_000', 'warmup=1_000')
        namespace = {}
        exec(compile(snippet, "README-quickstart", "exec"), namespace)

    def test_examples_table_matches_directory(self):
        readme = read("README.md")
        for script in (REPO / "examples").glob("*.py"):
            assert script.name in readme, f"{script.name} not in README"

    def test_architecture_lists_every_package(self):
        readme = read("README.md")
        packages = [d.name for d in (REPO / "src" / "repro").iterdir()
                    if d.is_dir() and not d.name.endswith("egg-info")
                    and d.name != "__pycache__"]
        for package in packages:
            assert f"repro.{package}" in readme, package


class TestDesignDoc:
    def test_every_bench_in_experiment_index_exists(self):
        design = read("DESIGN.md")
        for bench in re.findall(r"`benchmarks/(test_\w+\.py)`", design):
            assert (REPO / "benchmarks" / bench).exists(), bench

    def test_table1_total_consistent(self):
        from repro.experiments.storage import total_bytes

        assert str(total_bytes()) in read("EXPERIMENTS.md")

    def test_workload_doc_lists_every_kernel(self):
        doc = read("docs/WORKLOADS.md")
        import repro.trace.kernels as kernels_module

        for name in dir(kernels_module):
            if name.endswith("Kernel") and name != "Kernel":
                assert name in doc, name


def all_docs_text():
    parts = [read("README.md")]
    for page in sorted((REPO / "docs").glob("*.md")):
        parts.append(page.read_text(encoding="utf-8"))
    return "\n".join(parts)


class TestFlagsAndEnvVars:
    """Every flag and environment variable the docs promise must exist
    in the code — and the other way around (docs/LINTING.md RL006)."""

    def test_every_registered_env_var_is_documented(self):
        from repro.envreg import REGISTRY

        text = all_docs_text()
        for name in REGISTRY:
            assert name in text, f"{name} is registered but undocumented"

    def test_every_documented_env_var_is_consumed(self):
        # A REPRO_* name in the docs must be in the envreg registry;
        # RL006, run over src/repro, tools and benchmarks, guarantees
        # each registered name is read.
        from repro.envreg import REGISTRY

        for name in sorted(set(re.findall(r"\bREPRO_[A-Z_]+\b",
                                          all_docs_text()))):
            assert name in REGISTRY, (
                f"{name} is documented but not registered in "
                "repro.envreg")

    def test_every_documented_flag_exists(self):
        # Every ``repro <cmd> ... --flag`` in README.md, CONTRIBUTING.md
        # and docs/ must be an option of that subcommand (or of its
        # sub-subcommand, e.g. ``repro trace build --output``).
        from repro.cli import build_parser

        def options(parser):
            found = {}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        found[name] = (set(sub._option_string_actions),
                                       options(sub))
            return found

        commands = options(build_parser())
        pages = [REPO / "README.md", REPO / "CONTRIBUTING.md"]
        pages += sorted((REPO / "docs").glob("*.md"))
        checked = 0
        for page in pages:
            text = page.read_text(encoding="utf-8").replace("\\\n", " ")
            for line in text.splitlines():
                for match in re.finditer(r"\brepro ([a-z]+)\b([^`|;\n]*)",
                                         line):
                    if match.group(1) not in commands:
                        continue
                    rest = match.group(2).split(" #")[0]
                    known, subcommands = commands[match.group(1)]
                    words = rest.split()
                    if words and words[0] in subcommands:
                        known = known | subcommands[words[0]][0]
                    for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                                           rest):
                        checked += 1
                        assert flag in known, (page.name, line.strip())
        assert checked > 0

    def test_backend_names_documented(self):
        from repro.pipeline.engine import BACKENDS

        vector_doc = read("docs/VECTOR.md")
        traces_doc = read("docs/TRACES.md")
        for backend in BACKENDS:
            assert f"`{backend}`" in vector_doc, backend
            assert backend in traces_doc, backend

    def test_vector_doc_is_cross_linked(self):
        assert (REPO / "docs" / "VECTOR.md").exists()
        for page in ("README.md", "docs/ENGINE.md", "docs/PERF.md",
                     "docs/TRACES.md", "docs/ARCHITECTURE.md"):
            assert "VECTOR.md" in read(page), page

    def test_no_doc_mentions_retired_bench_harness(self):
        # bench/ is the one performance harness; the cycle pins live in
        # tests/test_perf_neutrality.py.  A sweep resumes by re-running
        # its printed command: the checkpoint manifests under
        # ``campaigns/``, ``sweep --resume`` and ``doctor --stale-age``
        # are retired too, and so is the reference timing loop:
        # tests/oracle.py is the model's spec now; only ``backend=``
        # picks a loop, so no environment variable does.  Every
        # predictor spec is a registry string, so the callable-spec
        # label, the reuse claim and ValuePredictor.reset are gone, and
        # the worker pool is the watchdog pool, one process and pipe
        # per job.  The
        # result cache has no size budget and the service queue no
        # priorities: both served a multi-tenant tier nothing used.
        pages = [REPO / name for name in (
            "README.md", "CONTRIBUTING.md", ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md")]
        pages += sorted((REPO / "docs").glob("*.md"))
        for page in pages:
            text = page.read_text(encoding="utf-8")
            for stale in ("repro bench", "perf_baseline.json", "BENCH_",
                          "--resume", "--stale-age", "campaigns/",
                          "perf harness", "_time_trace_reference",
                          "REPRO_ENGINE_BACKEND",
                          "<callable>", "_claimed_by_job",
                          "ValuePredictor.reset", "ProcessPoolExecutor",
                          "REPRO_CACHE_BUDGET", "--cache-budget",
                          "enforce_budget", "--priority"):
                assert stale not in text, (page, stale)


class TestLintDocs:
    def test_every_named_rule_code_exists(self):
        # A rule code the docs name must be one `repro lint
        # --list-rules` prints.  LINTING.md's mutation table is exempt:
        # it keeps the rows of deleted rules as the record of why.
        from repro.lint import default_rules

        codes = {rule.code for rule in default_rules()}
        pages = [REPO / name for name in (
            "README.md", "CONTRIBUTING.md", "tools/README.md",
            ".github/workflows/ci.yml")]
        pages += sorted((REPO / "docs").glob("*.md"))
        checked = 0
        for page in pages:
            text = page.read_text(encoding="utf-8")
            if page.name == "LINTING.md":
                head, table = text.split("\n## Mutation table\n")
                text = head + table[table.index("\n## "):]
            for code in re.findall(r"\bRL\d{3}\b", text):
                checked += 1
                assert code in codes, (page.name, code)
        assert checked > 0


class TestTelemetryDocs:
    def test_bucket_table_matches_taxonomy(self):
        from repro.telemetry import ALL_BUCKETS

        doc = read("docs/TELEMETRY.md")
        table = doc.split("| bucket | the ROB head was bound by |\n")[1]
        rows = table[:table.index("\n\n")].splitlines()[1:]
        names = tuple(re.match(r"\| `([a-z-]+)` \|", row).group(1)
                      for row in rows)
        assert names == ALL_BUCKETS


class TestBenchmarkInventory:
    @pytest.mark.parametrize("figure", range(6, 14))
    def test_every_figure_has_a_benchmark(self, figure):
        matches = list((REPO / "benchmarks").glob(f"test_fig{figure:02d}*"))
        assert matches, f"no benchmark for figure {figure}"

    def test_every_benchmark_prints_paper_context(self):
        for bench in (REPO / "benchmarks").glob("test_*.py"):
            text = bench.read_text(encoding="utf-8")
            assert "Paper" in text or "paper" in text, bench.name
