"""Tests for the campaign engine: jobs, the persistent result cache,
parallel fan-out, and the redesigned Runner/SuiteResult surface."""

import os
import pickle

import pytest

import repro
from repro.analysis.metrics import SuiteResult
from repro.errors import ConfigError
from repro.experiments.campaign import (
    CampaignEngine,
    Job,
    ResultCache,
    execute_job,
    fingerprint,
    job_key,
)
from repro.experiments.runner import (
    DEFAULT_WARMUP,
    Runner,
    default_length,
    default_warmup,
)

LENGTH = 3000
WARMUP = 800
WORKLOADS = ["astar", "hadoop", "milc"]


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("length", LENGTH)
    kwargs.setdefault("warmup", WARMUP)
    kwargs.setdefault("workloads", WORKLOADS)
    kwargs.setdefault("use_cache", True)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return Runner(**kwargs)


# ----------------------------------------------------------------------
# Cache keys.
# ----------------------------------------------------------------------
class TestJobKey:
    def test_deterministic(self):
        a = Job("astar", "skylake", "fvp", LENGTH, WARMUP)
        b = Job("astar", "skylake", "fvp", LENGTH, WARMUP)
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize("other", [
        Job("astar", "skylake", "fvp", LENGTH + 1, WARMUP),
        Job("astar", "skylake", "fvp", LENGTH, WARMUP + 1),
        Job("astar", "skylake-2x", "fvp", LENGTH, WARMUP),
        Job("astar", "skylake", "lvp", LENGTH, WARMUP),
        Job("astar", "skylake", None, LENGTH, WARMUP),
        Job("hadoop", "skylake", "fvp", LENGTH, WARMUP),
    ])
    def test_any_input_changes_the_key(self, other):
        base = Job("astar", "skylake", "fvp", LENGTH, WARMUP)
        assert job_key(base) != job_key(other)

    def test_version_bump_changes_the_key(self, monkeypatch):
        base = job_key(Job("astar", "skylake", "fvp", LENGTH, WARMUP))
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert job_key(Job("astar", "skylake", "fvp",
                           LENGTH, WARMUP)) != base

    def test_override_specs_have_their_own_key(self):
        plain = job_key(Job("astar", "skylake", "fvp", LENGTH, WARMUP))
        sized = job_key(Job("astar", "skylake", "fvp:epoch=1000",
                            LENGTH, WARMUP))
        assert isinstance(sized, str) and sized != plain

    def test_fingerprint_rejects_lambdas(self):
        with pytest.raises(TypeError):
            fingerprint(lambda: None)

    def test_seed_changes_the_key_only_when_set(self):
        base = job_key(Job("astar", "skylake", "fvp", LENGTH, WARMUP))
        seeded = job_key(Job("astar", "skylake", "fvp", LENGTH, WARMUP,
                             seed=7))
        assert seeded != base
        # Unset seed keys are byte-identical to the pre-streaming
        # payloads, so existing cache entries stay valid.
        assert job_key(Job("astar", "skylake", "fvp", LENGTH,
                           WARMUP, seed=None)) == base

    def test_trace_file_keys_by_content_hash(self, tmp_path):
        from repro.trace import build_trace, get_profile
        from repro.trace.io import write_trace_file

        trace = build_trace(get_profile("astar"), LENGTH)
        a = str(tmp_path / "a.rvt")
        b = str(tmp_path / "renamed.rvt")
        write_trace_file(trace, a)
        write_trace_file(trace, b)
        key_a = job_key(Job("astar", "skylake", "fvp", LENGTH, WARMUP,
                            trace_file=a))
        key_b = job_key(Job("astar", "skylake", "fvp", LENGTH, WARMUP,
                            trace_file=b))
        # Same bytes, different path: identical key (content-addressed).
        assert key_a == key_b
        assert key_a != job_key(Job("astar", "skylake", "fvp",
                                    LENGTH, WARMUP))

    #: Keys at telemetry schema 4 (the version is hashed into every
    #: key, so the 3 → 4 bump moved all five).  Result-cache
    #: entries and WAL logs are addressed by these exact hex strings;
    #: only a deliberate version or telemetry-schema bump may move them.
    GOLDEN_KEYS = [
        (Job("astar", "skylake", None, LENGTH, WARMUP),
         "9d2569cc7ba85ff08f3d144a690b0da9e4bd1dc88dc248d4798a9661273a8579"),
        (Job("astar", "skylake", "fvp", LENGTH, WARMUP),
         "1ae99ffc7c0d90a842dd87c1a41e49fe83cbcc4ff5d071d8677b85283093b646"),
        (Job("mcf", "skylake-2x", None, LENGTH, WARMUP),
         "a0c6ce53a58362c05365e9252f91138cc898a1401db08d32347c2f8007db1b03"),
        (Job("milc", "skylake-2x", "fvp", LENGTH, WARMUP, seed=5),
         "c57bd9892745aeffb346d8102b58d49a89113c5b086fa83d537d59fabb058946"),
        (Job("hadoop", "skylake", "lvp", 250_000, 100_000),
         "d72ce23235d7753d79715132ebf749c29b6400a2d024d3412cb53aad4bdd34c4"),
    ]

    @pytest.mark.parametrize("job,key", GOLDEN_KEYS,
                             ids=[job.label for job, _ in GOLDEN_KEYS])
    def test_golden_keys(self, job, key):
        assert repro.__version__ == "1.0.0"
        assert job_key(job) == key
        assert job_key(job) == key  # memoized fingerprints, same key

    def test_rewritten_trace_file_changes_the_key(self, tmp_path):
        from repro.trace import build_trace, get_profile
        from repro.trace.io import write_trace_file

        path = str(tmp_path / "t.rvt")
        job = Job("astar", "skylake", "fvp", LENGTH, WARMUP,
                  trace_file=path)
        write_trace_file(build_trace(get_profile("astar"), LENGTH), path)
        before = job_key(job)
        write_trace_file(build_trace(get_profile("mcf"), LENGTH), path)
        assert job_key(job) != before

    @pytest.mark.parametrize("job,error", [
        (Job("not-a-workload", "skylake", "fvp", LENGTH, WARMUP),
         KeyError),
        (Job("astar", "not-a-core", "fvp", LENGTH, WARMUP), ConfigError),
    ])
    def test_unknown_names_raise_every_call(self, job, error):
        for _ in range(2):
            with pytest.raises(error, match="unknown"):
                job_key(job)


class TestTraceFileJobs:
    def test_execute_job_replays_trace_file(self, tmp_path):
        from repro.trace import build_trace, get_profile
        from repro.trace.io import write_trace_file

        trace = build_trace(get_profile("astar"), LENGTH)
        path = str(tmp_path / "astar.rvt")
        write_trace_file(trace, path)
        from_file = execute_job(Job("astar", "skylake", "fvp",
                                    LENGTH, WARMUP, trace_file=path))
        in_memory = execute_job(Job("astar", "skylake", "fvp",
                                    LENGTH, WARMUP))
        assert from_file.to_dict() == in_memory.to_dict()

    def test_runner_trace_file_requires_one_workload(self, tmp_path):
        from repro.errors import ConfigError
        from repro.trace import build_trace, get_profile
        from repro.trace.io import write_trace_file

        path = str(tmp_path / "astar.rvt")
        write_trace_file(build_trace(get_profile("astar"), LENGTH), path)
        with pytest.raises(ConfigError, match="exactly one"):
            Runner(workloads=["astar", "mcf"], trace_file=path)
        with pytest.raises(ConfigError, match="exactly one"):
            Runner(trace_file=path)
        runner = Runner(workloads=["astar"], warmup=WARMUP,
                        trace_file=path)
        assert runner.length == len(build_trace(get_profile("astar"),
                                                LENGTH))

    def test_runner_seed_changes_results(self):
        plain = Runner(length=LENGTH, warmup=WARMUP,
                       workloads=["astar"]).run("astar")
        reseeded = Runner(length=LENGTH, warmup=WARMUP,
                          workloads=["astar"], seed=99).run("astar")
        assert plain.cycles != reseeded.cycles


# ----------------------------------------------------------------------
# The persistent cache.
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_after_identical_rerun(self, tmp_path):
        first = make_runner(tmp_path)
        result = first.run("astar", "skylake", "fvp")
        second = make_runner(tmp_path)
        again = second.run("astar", "skylake", "fvp")
        assert again == result
        assert second.engine.stats.simulated == 0
        assert second.engine.stats.hits == 1

    def test_miss_after_changing_inputs(self, tmp_path):
        first = make_runner(tmp_path)
        first.run("astar", "skylake", "fvp")
        for change in (dict(length=LENGTH + 500),
                       dict(warmup=WARMUP + 100)):
            other = make_runner(tmp_path, **change)
            other.run("astar", "skylake", "fvp")
            assert other.engine.stats.simulated == 1, change
        same = make_runner(tmp_path)
        same.run("astar", "skylake-2x", "fvp")
        same.run("astar", "skylake", "lvp")
        assert same.engine.stats.simulated == 2
        assert same.engine.stats.hits == 0

    def test_miss_after_version_bump(self, tmp_path, monkeypatch):
        first = make_runner(tmp_path)
        first.run("astar", "skylake", "fvp")
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        second = make_runner(tmp_path)
        second.run("astar", "skylake", "fvp")
        assert second.engine.stats.simulated == 1
        assert second.engine.stats.hits == 0

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path):
        first = make_runner(tmp_path)
        result = first.run("astar", "skylake", "fvp")
        cache = first.engine.cache
        (entry,) = cache.entries()
        with open(cache.path(entry), "wb") as handle:
            handle.write(b"not a pickle at all")
        second = make_runner(tmp_path)
        again = second.run("astar", "skylake", "fvp")
        assert again == result
        assert second.engine.stats.simulated == 1

    def test_wrong_payload_type_treated_as_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = "0" * 64
        os.makedirs(cache.root, exist_ok=True)
        with open(cache.path(key), "wb") as handle:
            pickle.dump({"not": "a SimResult"}, handle)
        assert cache.get(key) is None
        assert not os.path.exists(cache.path(key))

    def test_clear_removes_entries(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run("astar", "skylake", "fvp")
        cache = runner.engine.cache
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_stats_persist_across_processes(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run("astar", "skylake", "fvp")
        rerun = make_runner(tmp_path)
        rerun.run("astar", "skylake", "fvp")
        stats = ResultCache(str(tmp_path / "cache")).load_stats()
        assert stats["simulated"] == 1
        assert stats["hits"] == 1
        assert stats["last_run"] == {"hits": 1, "misses": 0,
                                     "simulated": 0}


# ----------------------------------------------------------------------
# Parallel execution.
# ----------------------------------------------------------------------
class TestParallelExecution:
    def test_parallel_matches_serial_on_three_workloads(self):
        jobs = [Job(w, "skylake", spec, LENGTH, WARMUP)
                for w in WORKLOADS for spec in (None, "fvp")]
        serial = CampaignEngine(jobs=1).run_jobs(jobs)
        parallel = CampaignEngine(jobs=3).run_jobs(jobs)
        for job in jobs:
            assert parallel[job] == serial[job], job.label

    def test_parallel_suite_matches_serial_runner(self, tmp_path):
        serial = make_runner(tmp_path, use_cache=False, jobs=1)
        parallel = make_runner(tmp_path, use_cache=False, jobs=2)
        srows = serial.suite("fvp").to_rows()
        prows = parallel.suite("fvp").to_rows()
        assert srows == prows

    def test_jobs_deduplicated(self):
        engine = CampaignEngine(jobs=1)
        job = Job("astar", "skylake", "fvp", LENGTH, WARMUP)
        results = engine.run_jobs(
            [job, job, Job("astar", "skylake", "fvp", LENGTH, WARMUP)])
        assert engine.stats.simulated == 1
        assert len(results) == 1

    def test_oracle_and_override_specs_run_in_the_pool_and_cache(
            self, tmp_path):
        specs = ("fvp-oracle", "fvp:epoch=1000", "fvp+store-chains")
        workloads = ("astar", "hadoop")
        jobs = [Job(w, "skylake", spec, LENGTH, WARMUP)
                for w in workloads for spec in specs]
        serial = Runner(length=LENGTH, warmup=WARMUP,
                        workloads=list(workloads))
        expected = {job: serial.run(job.workload, job.core, job.spec)
                    for job in jobs}
        engine = CampaignEngine(
            jobs=2, cache=ResultCache(str(tmp_path / "cache")))
        assert engine.run_jobs(jobs) == expected
        assert engine.stats.simulated == len(jobs)
        assert engine.stats.fallbacks == 0
        assert expected[jobs[1]].predictor == "fvp"
        rerun = CampaignEngine(
            jobs=2, cache=ResultCache(str(tmp_path / "cache")))
        assert rerun.run_jobs(jobs) == expected
        assert (rerun.stats.hits, rerun.stats.simulated) == (len(jobs), 0)

    def test_simresult_round_trips_through_pickle(self):
        result = execute_job(Job("astar", "skylake", "fvp",
                                 LENGTH, WARMUP))
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.ipc == result.ipc


# ----------------------------------------------------------------------
# Predictor lifecycle.
# ----------------------------------------------------------------------
class TestPredictorLifecycle:
    def test_prediction_is_frozen_and_compares_by_value(self):
        from repro.pipeline.vp_interface import Prediction

        a = Prediction(42, source="lv")
        b = Prediction(42, source="lv")
        assert a == b
        assert a != Prediction(43, source="lv")
        assert a != Prediction(42, source="mr")
        with pytest.raises(Exception):
            a.value = 7


# ----------------------------------------------------------------------
# Warmup rule and SuiteResult.
# ----------------------------------------------------------------------
class TestDefaultWarmup:
    def test_forty_percent_capped(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        assert default_warmup(10_000) == 4_000
        assert default_warmup(1_000_000) == DEFAULT_WARMUP

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "123")
        assert default_warmup(10_000) == 123

    @pytest.mark.parametrize("name", ["REPRO_WARMUP", "REPRO_LENGTH"])
    def test_unparseable_env_names_the_variable(self, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        with pytest.raises(ConfigError, match=name):
            Runner(workloads=["astar"])

    def test_pair_rejects_a_zero_cycle_measured_region(self):
        runner = Runner(length=2000, warmup=1999, workloads=["mcf"])
        with pytest.raises(ConfigError, match="mcf: warmup 1999 leaves "
                                              "a measured region of 0"):
            runner.workload_run("mcf", "skylake", "fvp")

    def test_length_env_read_when_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_LENGTH", "5000")
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        assert default_length() == 5000
        assert Runner(workloads=["astar"]).length == 5000

    def test_runner_default_is_valid_for_short_traces(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        runner = Runner(length=5_000, workloads=["astar"])
        assert runner.warmup == 2_000  # not the old flat 40k


class TestSuiteResult:
    @pytest.fixture(scope="class")
    def suite(self):
        runner = Runner(length=LENGTH, warmup=WARMUP, workloads=WORKLOADS)
        return runner.suite("fvp")

    def test_sequence_protocol(self, suite):
        assert isinstance(suite, SuiteResult)
        assert len(suite) == 3
        assert [r.workload for r in suite] == WORKLOADS
        assert suite[0].workload == "astar"
        assert isinstance(suite[:2], SuiteResult)

    def test_geomean_speedup(self, suite):
        product = 1.0
        for run in suite:
            product *= run.speedup
        assert suite.geomean_speedup() == \
            pytest.approx(product ** (1.0 / 3.0))
        assert suite.gain == pytest.approx(suite.geomean_speedup() - 1.0)

    def test_by_category_partitions(self, suite):
        groups = suite.by_category()
        assert set(groups) == {"ISPEC06", "Server", "FSPEC06"}
        assert sum(len(g) for g in groups.values()) == len(suite)
        assert all(isinstance(g, SuiteResult) for g in groups.values())

    def test_to_rows(self, suite):
        rows = suite.to_rows()
        assert [row["workload"] for row in rows] == WORKLOADS
        for row, run in zip(rows, suite):
            assert row["speedup"] == run.speedup
            assert row["coverage"] == run.coverage
            assert row["category"] == run.category

    def test_format_suite_renders_rows(self, suite):
        from repro.analysis.reporting import format_suite

        text = format_suite("demo", suite)
        assert "astar" in text and "geomean" in text
