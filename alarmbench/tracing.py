"""Spans, Spark progress events and the per-layer probes of a traced run.

Spans are recorded by the benchmark around its calls into each layer,
kept in memory and written out as JSON lines when the run ends. Numbers
the consumer keeps to itself come from its return value
(``ConsumerMetrics``), from a ``StreamingQueryListener`` and from
Spark's status tracker. The probes re-run one layer at a time on the
round's own input, between rounds, with the loop clock stopped.
"""
from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from pyspark.ml import PipelineModel
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.streaming import StreamingQueryListener

from repro.broker.serializers import GsonishSerializer
from repro.core import verifier
from repro.docstore.store import DocumentStore
from repro.streaming import consumer

from alarmbench.pipeline import REPARTITION, Round, Setup

# Listener durationMs key -> per-layer metric.
PROGRESS_KEYS = {
    "triggerExecution": "streaming.trigger_ms",
    "addBatch": "streaming.add_batch_ms",
    "queryPlanning": "streaming.query_planning_ms",
    "latestOffset": "streaming.latest_offset_ms",
    "walCommit": "streaming.wal_commit_ms",
    "commitOffsets": "streaming.commit_offsets_ms",
}

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "broker.produce_s": "s",
    "broker.produce_records_per_s": "records/s",
    "broker.serialize_records_per_s": "records/s",
    "broker.log_segments": "count",
    "broker.log_bytes": "bytes",
    "streaming.run_s": "s",
    "streaming.batches": "count",
    "streaming.parse_devices_s": "s",
    "streaming.history_s": "s",
    "streaming.score_sink_s": "s",
    **{m: "ms" for m in PROGRESS_KEYS.values()},
    "streaming.input_rows": "count",
    "streaming.start_stop_s": "s",
    "streaming.jobs_per_batch": "count",
    "docstore.histogram_s": "s",
    "docstore.devices_per_window": "count",
    "docstore.insert_s": "s",
    "docstore.part_files": "count",
    "core.hash_s": "s",
    "core.score_s": "s",
    "core.score_rows_per_s": "rows/s",
    "core.model_nodes": "count",
    "core.train_s": "s",
    "sink.write_s": "s",
    "sink.files": "count",
    "sink.bytes": "bytes",
    "driver.peak_rss_mb": "MB",
    "trace.alarms_per_s": "alarms/s",
}


class Tracer:
    """Spans (name, start, end, parent) in memory, and the listener that
    collects Spark's progress events; a no-op without a listener."""

    def __init__(self, listener: ProgressListener | None) -> None:
        self.listener = listener
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if self.listener is None:
            yield None
            return
        sid = len(self.spans)
        span = {"id": sid, "name": name, "parent": parent, "start": time.perf_counter()}
        self.spans.append(span)
        try:
            yield sid
        finally:
            span["end"] = time.perf_counter()

    def query_mark(self) -> int:
        """Position in the listener's events before a query starts."""
        return self.listener.mark() if self.listener else 0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class ProgressListener(StreamingQueryListener):
    """Collects progress and termination events of every query."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._cv = threading.Condition()

    def _add(self, event: tuple) -> None:
        with self._cv:
            self.events.append(event)
            self._cv.notify_all()

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        p = event.progress
        self._add(("progress", str(p.runId), p.numInputRows, dict(p.durationMs)))

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        self._add(("terminated", str(event.runId), 0, {}))

    def mark(self) -> int:
        with self._cv:
            return len(self.events)

    def query_since(self, mark: int, timeout_s: float = 60.0) -> tuple[str, list[tuple]]:
        """(run id, progress events) of the first query ended after ``mark``.

        Events reach Python asynchronously, so this waits for the
        query's termination event.
        """
        with self._cv:
            def ended():
                return any(e[0] == "terminated" for e in self.events[mark:])

            if not self._cv.wait_for(ended, timeout_s):
                raise TimeoutError("no query termination event from the listener")
            events = self.events[mark:]
        run_id = next(e[1] for e in events if e[0] == "terminated")
        return run_id, [e for e in events if e[0] == "progress" and e[1] == run_id]


def model_nodes(vm: verifier.VerificationModel) -> int:
    """Total tree nodes of a forest; weights plus intercept of a linear model."""
    model = vm.model.stages[-1]
    if hasattr(model, "totalNumNodes"):
        return int(model.totalNumNodes)
    return int(model.numFeatures) + 1


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _noop_write(df) -> None:
    """Materialise every column of ``df`` without writing it anywhere."""
    df.write.format("noop").mode("overwrite").save()


class Prober:
    """Per-layer numbers of each round of a traced run."""

    def __init__(self, spark: SparkSession, setup: Setup, scratch: Path, tracer: Tracer) -> None:
        self.spark = spark
        self.setup = setup
        self.scratch = scratch
        self.tracer = tracer
        self.listener = tracer.listener
        self.encoder = PipelineModel(setup.vm.model.stages[:-1])
        self.insert_probe = DocumentStore(scratch / "store").collection("insert_probe")
        self.seen_out: set[Path] = set()

    def __call__(self, r: Round) -> None:
        spark, setup, p = self.spark, self.setup, r.probes
        with self.tracer.span("probes") as pid:
            run_id, progress = self.listener.query_since(r.query_mark)
            for key, metric in PROGRESS_KEYS.items():
                p[metric] = float(sum(e[3].get(key, 0) for e in progress))
            p["streaming.input_rows"] = float(sum(e[2] for e in progress))
            p["streaming.start_stop_s"] = (
                r.metrics.elapsed_s - p["streaming.trigger_ms"] / 1000.0
            )
            jobs = spark.sparkContext.statusTracker().getJobIdsForGroup(run_id)
            p["streaming.jobs_per_batch"] = len(jobs) / max(1, len(progress))

            m = r.metrics
            p["streaming.run_s"] = m.elapsed_s
            p["streaming.batches"] = float(m.n_batches)
            p["streaming.parse_devices_s"] = m.time_streaming_s
            p["streaming.history_s"] = m.time_history_s
            p["streaming.score_sink_s"] = m.time_ml_s

            p["broker.produce_s"] = r.produce_s
            p["broker.produce_records_per_s"] = len(r.window.records) / r.produce_s
            ser = GsonishSerializer()
            with self.tracer.span("probe.broker.serialize", pid):
                t = _timed(lambda: [ser.dumps(rec) for rec in r.window.records])
            p["broker.serialize_records_per_s"] = len(r.window.records) / t
            p["broker.log_segments"] = float(len(r.segments))
            p["broker.log_bytes"] = float(sum(s.stat().st_size for s in r.segments))

            # The round's input as the consumer parses and repartitions it.
            batch = (
                spark.read.schema(consumer.ALARM_STREAM_SCHEMA)
                .json([str(s) for s in r.segments])
                .repartition(REPARTITION)
                .cache()
            )
            n = batch.count()
            devices = [row[0] for row in batch.select("device_mac").distinct().collect()]
            hist = (
                r.history.device_histogram(spark, devices)
                .groupBy("device_mac")
                .agg(
                    F.sum("n_alarms").alias("past_alarms"),
                    F.count("*").alias("active_days"),
                )
            )
            with self.tracer.span("probe.docstore.histogram", pid):
                p["docstore.histogram_s"] = _timed(hist.count)
            p["docstore.devices_per_window"] = float(len(devices))
            if r.insert_s is None:
                with self.tracer.span("probe.docstore.insert", pid):
                    p["docstore.insert_s"] = _timed(
                        lambda: self.insert_probe.insert_many(spark, r.window.alarms(setup.test_pdf))
                    )
            else:
                p["docstore.insert_s"] = r.insert_s
            p["docstore.part_files"] = float(len(list(r.history.path.glob("part-*"))))

            with self.tracer.span("probe.core.hash", pid):
                p["core.hash_s"] = _timed(lambda: _noop_write(self.encoder.transform(batch)))
            with self.tracer.span("probe.core.score", pid):
                p["core.score_s"] = _timed(
                    lambda: _noop_write(verifier.verify(setup.vm, batch))
                )
            p["core.score_rows_per_s"] = n / p["core.score_s"]
            p["core.model_nodes"] = float(model_nodes(setup.vm))

            scored = verifier.verify(setup.vm, batch).cache()
            scored.count()
            sink = self.scratch / "sink"
            with self.tracer.span("probe.sink.write", pid):
                p["sink.write_s"] = _timed(
                    lambda: scored.write.mode("overwrite").parquet(str(sink))
                )
            scored.unpersist()
            batch.unpersist()

            out = set(Path(r.stream.out_dir).glob("part-*"))
            new = out - self.seen_out
            self.seen_out |= new
            p["sink.files"] = float(len(new))
            p["sink.bytes"] = float(sum(f.stat().st_size for f in new))


# Per-layer metrics that are not probed per round.
RUN_LEVEL = ("core.train_s", "driver.peak_rss_mb", "trace.alarms_per_s")


def per_layer(
    rounds: list[Round], alarms_per_s: float, rss_mb: float, train_s: float
) -> dict[str, float]:
    """Median over rounds of every probed number, plus the model's
    training time, the driver JVM's peak RSS and the traced run's own
    throughput."""
    out = {
        name: statistics.median(r.probes[name] for r in rounds)
        for name in PER_LAYER_UNITS
        if name not in RUN_LEVEL
    }
    out["core.train_s"] = train_s
    out["driver.peak_rss_mb"] = rss_mb
    out["trace.alarms_per_s"] = alarms_per_s
    return out
