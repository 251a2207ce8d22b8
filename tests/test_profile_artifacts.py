"""The persisted profile store behind ``runner.profile_benchmark``.

Lookup order is memory, then disk, then compute; a computed profile is
written back.  Damage of any kind is counted as ``rejected`` and
recomputed, never served; artifacts from other sources are misses; and
the sweep engine routes every dispatched job to the ``artifacts/``
directory beside its journal without changing a single journal record.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.compiler.pointer_group import PointerGroupProfile
from repro.core.config import SystemConfig
from repro.experiments import artifacts, runner
from repro.experiments.artifacts import (
    ArtifactStats,
    artifact_path,
    profile_key,
    read_profile,
    write_profile,
)
from repro.experiments.engine import (
    CheckpointJournal,
    ExecutionEngine,
    Job,
    RetryPolicy,
)
from repro.experiments.engine.checkpoint import frame_record

CFG = SystemConfig.scaled()
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


@pytest.fixture(autouse=True)
def fresh_caches():
    runner.clear_caches()
    yield
    runner.clear_caches()


def counters():
    return runner.cache_stats()["artifacts"]


def sample_profile() -> PointerGroupProfile:
    return PointerGroupProfile.from_rows(
        [(0x400000, -8, 12, 7), (0x400000, 8, 3, 0), (0x400010, 4, 5, 5)]
    )


def mst_key() -> str:
    return profile_key("mst", "test", runner.profiler_config(CFG))


def profile_mst(directory):
    return runner.profile_benchmark("mst", CFG, "test", artifact_dir=directory)


class TestRoundTrip:
    def test_written_profile_reads_back_equal(self, tmp_path):
        stats = ArtifactStats()
        write_profile(tmp_path, "k1", sample_profile(), stats)
        loaded = read_profile(tmp_path, "k1", stats)
        assert loaded.rows() == sample_profile().rows()
        assert stats.as_dict() == {
            "hits": 1, "misses": 0, "writes": 1, "rejected": 0
        }

    def test_memory_then_disk_then_compute(self, tmp_path):
        computed = profile_mst(tmp_path)
        assert counters() == {"hits": 0, "misses": 1, "writes": 1,
                              "rejected": 0}
        assert profile_mst(tmp_path) is computed  # the in-memory memo
        assert counters()["hits"] == 0
        runner.clear_caches()
        loaded = profile_mst(tmp_path)
        assert loaded.rows() == computed.rows()
        assert counters() == {"hits": 1, "misses": 0, "writes": 0,
                              "rejected": 0}
        # the LRU counters keep their meaning: a disk hit is a memo miss
        assert runner.cache_stats()["profiles"]["misses"] == 1

    def test_no_artifact_dir_touches_no_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner.profile_benchmark("mst", CFG, "test")
        assert list(tmp_path.iterdir()) == []
        assert counters() == {"hits": 0, "misses": 0, "writes": 0,
                              "rejected": 0}


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    middle = len(data) // 2
    data[middle] = ord("7") if data[middle] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _relabel(path):
    data = json.loads(path.read_text())["data"]
    data["key"] = "0" * 32
    path.write_text(frame_record(data))


class TestDamageIsRecomputed:
    @pytest.mark.parametrize(
        "damage", [_flip_byte, _truncate, _relabel],
        ids=["flipped-byte", "truncated", "key-mismatch"],
    )
    def test_rejected_recomputed_and_rewritten(self, tmp_path, damage):
        good = profile_mst(tmp_path).rows()
        path = artifact_path(tmp_path, mst_key())
        damage(path)
        runner.clear_caches()
        assert profile_mst(tmp_path).rows() == good
        assert counters() == {"hits": 0, "misses": 0, "writes": 1,
                              "rejected": 1}
        runner.clear_caches()
        assert profile_mst(tmp_path).rows() == good
        assert counters()["hits"] == 1  # the rewrite is whole again

    def test_changed_source_digest_is_a_miss(self, tmp_path, monkeypatch):
        profile_mst(tmp_path)
        runner.clear_caches()
        monkeypatch.setattr(artifacts, "source_digest", lambda: "other")
        profile_mst(tmp_path)
        assert counters() == {"hits": 0, "misses": 1, "writes": 1,
                              "rejected": 0}
        assert len(list(tmp_path.iterdir())) == 2


def _race_writer(directory, key, start, rounds):
    start.wait()
    stats = ArtifactStats()
    for _ in range(rounds):
        write_profile(directory, key, sample_profile(), stats)


def test_racing_writers_leave_one_valid_file(tmp_path):
    ctx = multiprocessing.get_context("fork")
    start = ctx.Event()
    writers = [
        ctx.Process(target=_race_writer, args=(tmp_path, "k", start, 40))
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    start.set()
    for writer in writers:
        writer.join(30)
        assert writer.exitcode == 0
    assert [path.name for path in tmp_path.iterdir()] == ["k.json"]
    stats = ArtifactStats()
    assert read_profile(tmp_path, "k", stats).rows() == sample_profile().rows()
    assert stats.hits == 1


def test_journal_clear_keeps_artifacts(tmp_path):
    journal = CheckpointJournal(tmp_path / "sweep.jsonl")
    journal.path.write_text("")
    stats = ArtifactStats()
    directory = journal.artifact_dir
    write_profile(directory, "k", sample_profile(), stats)
    journal.clear()
    assert not journal.exists()
    assert read_profile(directory, "k", stats) is not None


def where_artifacts_go(job):
    """Reports the directory the worker was handed, and the job key."""
    return {"artifact_dir": str(job.artifact_dir), "key": job.key()}


class TestEngineRouting:
    def test_journal_directory_reaches_the_worker(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "sweep.jsonl")
        job = Job("mst", "ecdp", CFG, input_set="test")
        engine = ExecutionEngine(
            jobs=1, checkpoint=journal, worker=where_artifacts_go,
            retry=FAST_RETRY,
        )
        try:
            outcome = engine.run([job]).results[job.key()]
        finally:
            engine.close()
        assert outcome.result["artifact_dir"] == str(tmp_path / "artifacts")
        assert outcome.result["key"] == job.key()
        assert outcome.job.artifact_dir is None  # the report keeps the job

    def test_engine_without_journal_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        job = Job("mst", "ecdp", CFG, input_set="test")
        engine = ExecutionEngine(jobs=1, retry=FAST_RETRY)
        try:
            report = engine.run([job])
        finally:
            engine.close()
        assert report.exit_code == 0
        assert list(tmp_path.rglob("*")) == []


def test_second_sweep_reads_first_sweeps_artifacts(tmp_path):
    """A second sweep over one directory reads the first sweep's profiles.

    Each cell runs in its own forked worker, whose in-memory profile
    memo dies with it, so only the disk artifacts can carry a profile
    from one sweep to the next.  Every miss is written back through a
    rename, which replaces the file; so artifacts left untouched (same
    inode, same mtime) mean no cell of the second sweep profiled
    anything.
    """
    jobs = [
        Job(benchmark, mechanism, CFG, input_set="test")
        for benchmark in ("mst", "treeadd")
        for mechanism in ("ecdp", "grp")
    ]
    hashes = {}
    stamps = {}
    for name in ("first", "second"):
        journal = CheckpointJournal(tmp_path / f"{name}.jsonl")
        engine = ExecutionEngine(
            jobs=2, checkpoint=journal, retry=FAST_RETRY, timeout=120.0,
        )
        try:
            assert engine.run(jobs).exit_code == 0
        finally:
            engine.close()
        hashes[name] = journal.content_hashes()
        stamps[name] = {
            path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in (tmp_path / "artifacts").iterdir()
        }
    assert len(stamps["first"]) == 2  # one train profile per benchmark
    assert stamps["second"] == stamps["first"]
    assert hashes["second"] == hashes["first"]
