"""Executor-transport tests: the local pool, one shared journal.

Transport faults must be absorbed by the retry budget within one run;
two engines appending to one journal must never tear it; execution
provenance (``executor``/``host``/``queue_seconds``) must round-trip
through export rows and journal records; and the service client's 429
retry must stay bounded.  Everything here drives real forked workers.
"""

import threading

import pytest

from repro.errors import ServiceBusyError, UsageError
from repro.experiments.engine import (
    BACKEND_FAULTS,
    CheckpointJournal,
    ExecutionEngine,
    FaultPlan,
    FaultSpec,
    Job,
    ResultSnapshot,
    RetryPolicy,
    create_backend,
    journal_record,
)
from repro.experiments.export import result_record
from repro.service.client import ServiceClient
from repro.telemetry import EventTracer

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def deterministic_worker(job):
    """Same job -> same metrics, wherever and whenever it runs."""
    return {
        "ipc": round(1.0 + len(job.benchmark) / 10, 3),
        "bpki": float(len(job.mechanism)),
        "cycles": 1000 + len(job.label),
    }


def make_engine(tmp_path, **overrides):
    settings = dict(
        jobs=2,
        timeout=30.0,
        retry=FAST_RETRY,
        checkpoint=CheckpointJournal(tmp_path / "sweep.jsonl"),
        worker=deterministic_worker,
    )
    settings.update(overrides)
    return ExecutionEngine(**settings)


class TestBackendFactory:
    def test_unknown_backend_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown backend"):
            create_backend("carrier-pigeon")


class TestTransportFaults:
    """The transport fault catalog, delivered around the local pool."""

    @pytest.mark.parametrize("kind", sorted(BACKEND_FAULTS))
    def test_fault_converges_in_run(self, tmp_path, kind):
        tracer = EventTracer()
        engine = make_engine(
            tmp_path,
            fault_plan=FaultPlan([FaultSpec(kind, job="beta/m1")]),
            tracer=tracer,
        )
        jobs = [
            Job(benchmark, mechanism, input_set="test")
            for benchmark in ("alpha", "beta", "gamma")
            for mechanism in ("m1", "m2")
        ]
        report = engine.run(jobs)
        # the fault burned one attempt; the retry budget absorbed it
        assert report.exit_code == 0
        hit = {r.job.label: r for r in report.ok}["beta/m1"]
        assert hit.attempts == 2
        kinds = {event[1] for event in tracer.snapshot()}
        assert "fault" in kinds
        assert "dispatch" in kinds
        if kind == "host-loss":
            assert "host-lost" in kinds
        if kind == "partitioned-ack":
            assert "partitioned-ack" in kinds


class TestConcurrentJournalWriters:
    def test_two_engines_one_journal_no_torn_records(self, tmp_path):
        """Two engines appending to one journal file must not tear it.

        Several dispatch processes, one shared content-addressed
        journal.  The flock around each append serializes whole records,
        so a concurrent run leaves every line CRC-clean.
        """
        path = tmp_path / "shared.jsonl"
        half_a = [Job(b, m, input_set="test")
                  for b in ("a1", "a2", "a3", "a4") for m in ("x", "y")]
        half_b = [Job(b, m, input_set="test")
                  for b in ("b1", "b2", "b3", "b4") for m in ("x", "y")]
        errors = []

        def run(jobs):
            engine = ExecutionEngine(
                jobs=2, timeout=30.0, retry=FAST_RETRY,
                checkpoint=CheckpointJournal(path),
                worker=deterministic_worker,
            )
            try:
                report = engine.run(jobs)
                if report.exit_code != 0:
                    errors.append(report.failures)
            except Exception as error:  # noqa: BLE001 — assert below
                errors.append(error)
            finally:
                engine.close()

        threads = [
            threading.Thread(target=run, args=(half,))
            for half in (half_a, half_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        journal = CheckpointJournal(path)
        salvage = journal.verify()
        assert salvage.clean, f"journal damaged: {salvage.summary()}"
        assert len(journal.load()) == len(half_a) + len(half_b)


class TestProvenanceExport:
    def test_ok_rows_carry_provenance_columns(self, tmp_path):
        engine = make_engine(tmp_path)
        job = Job("alpha", "m1", input_set="test")
        try:
            report = engine.run([job])
        finally:
            engine.close()
        outcome = report.ok[0]
        # the worker returns a bare metrics dict; export reads it through
        # the same snapshot surface a journal replay rehydrates
        row = result_record(
            "alpha", "m1", ResultSnapshot(outcome.result),
            executor=outcome.executor, host=outcome.host,
            queue_seconds=outcome.queue_seconds,
        )
        assert row["executor"] == "local"
        assert row["host"] is None
        assert row["queue_seconds"] is not None
        # journal records round-trip the same columns
        record = journal_record(outcome)
        assert record["executor"] == "local"
        assert "host" not in record  # a local run names no host
        assert "queue_seconds" in record

    def test_failed_rows_keep_provenance_null(self):
        from repro.experiments.engine import FailedResult, JobFailure

        row = result_record(
            "alpha", "m1",
            FailedResult(JobFailure("JobError", "boom")),
            executor="subprocess", host="somewhere", queue_seconds=1.0,
        )
        assert row["status"].startswith("FAILED")
        assert row["executor"] is None
        assert row["host"] is None
        assert row["queue_seconds"] is None

    def test_pre_backend_journals_export_null_provenance(self, tmp_path):
        # a journal written before the backend era has no provenance
        # fields; replay must surface None, not invent values
        engine = make_engine(tmp_path)
        job = Job("alpha", "m1", input_set="test")
        try:
            report = engine.run([job])
        finally:
            engine.close()
        from repro.experiments.engine.checkpoint import frame_record

        journal = CheckpointJournal(tmp_path / "sweep.jsonl")
        stripped = [
            {k: v for k, v in record.items()
             if k not in ("executor", "host", "queue_seconds")}
            for record in journal.load().values()
        ]
        journal.path.write_text(
            "".join(frame_record(record) for record in stripped)
        )

        resumed_engine = make_engine(tmp_path)
        try:
            resumed = resumed_engine.run([job], resume=True)
        finally:
            resumed_engine.close()
        replayed = resumed.ok[0]
        assert replayed.resumed
        assert replayed.executor is None
        assert replayed.host is None
        assert replayed.queue_seconds is None


class TestClientBusyRetry:
    """Satellite: bounded 429 retry with backoff, jitter, Retry-After."""

    def make_client(self, **kwargs):
        client = ServiceClient("http://127.0.0.1:1", **kwargs)
        client.sleeps = []
        client._sleep = client.sleeps.append
        client._random = lambda: 0.5  # deterministic mid-range jitter
        return client

    def test_retries_then_succeeds(self):
        client = self.make_client(busy_retries=4, busy_backoff=0.1)
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            if len(calls) < 3:
                raise ServiceBusyError("full", status=429, retry_after=0.2)
            return {"ok": True}

        client._request_once = flaky
        assert client._request("POST", "/jobs", {}) == {"ok": True}
        assert len(calls) == 3
        # every sleep honored the server's Retry-After floor
        assert len(client.sleeps) == 2
        assert all(s >= 0.2 for s in client.sleeps)

    def test_backoff_grows_exponentially_with_jitter(self):
        client = self.make_client(busy_retries=3, busy_backoff=0.1)

        def always_busy(method, path, payload=None):
            raise ServiceBusyError("full", status=429)

        client._request_once = always_busy
        with pytest.raises(ServiceBusyError):
            client._request("GET", "/stats")
        # base 0.1 doubling, jitter = +25% at _random()=0.5
        assert client.sleeps == pytest.approx([0.125, 0.25, 0.5])

    def test_bounded_attempts(self):
        client = self.make_client(busy_retries=2)
        attempts = []

        def always_busy(method, path, payload=None):
            attempts.append(1)
            raise ServiceBusyError("full", status=429, retry_after=0.01)

        client._request_once = always_busy
        with pytest.raises(ServiceBusyError):
            client._request("GET", "/stats")
        assert len(attempts) == 3  # initial + 2 retries

    def test_long_retry_after_propagates_immediately(self):
        # a server asking for more than the backoff cap is saying
        # "busy for a while" — that decision belongs to the caller
        client = self.make_client(busy_backoff_cap=2.0)

        def very_busy(method, path, payload=None):
            raise ServiceBusyError("drain", status=503, retry_after=120.0)

        client._request_once = very_busy
        with pytest.raises(ServiceBusyError) as err:
            client._request("GET", "/stats")
        assert client.sleeps == []
        assert err.value.retry_after == 120.0

    def test_busy_retry_false_is_raw(self):
        client = self.make_client()

        def busy(method, path, payload=None):
            raise ServiceBusyError("full", status=429, retry_after=0.01)

        client._request_once = busy
        with pytest.raises(ServiceBusyError):
            client._request("POST", "/jobs", {}, busy_retry=False)
        assert client.sleeps == []
