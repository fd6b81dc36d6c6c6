"""The benchmark's workloads, driven through the program's public functions.

A round sends one window of alarms: the generator draws held-out
alarms, ``repro.broker.producer.produce`` writes them into a
``repro.broker.log.PartitionedLog``, and
``repro.streaming.consumer.run_available`` verifies them with a
``repro.core.verifier`` model against a ``repro.docstore`` history and
appends the verdicts to the consumer's parquet sink. The loop is closed:
the next window is generated only after the consumer has returned, so
exactly one window is in flight.

- ``drain_rf``: each round is one pre-produced 150 K-alarm log in a
  fresh directory, drained by a single ``run_available`` call with the
  paper's random forest (Section 5.5).
- ``windows_rf``: each round is a 5 K-alarm window appended to one log
  and drained by its own ``run_available`` call, so every window pays the
  consumer's fixed per-batch costs.
- ``windows_lr_growing_history``: the same loop with logistic
  regression; after each window its alarms are appended to the history
  with ``Collection.insert_many``, and every window carries a few
  malformed lines (two truncated, two with a string ``fault_code``).

Windowed workloads run in cycles of a fixed number of windows, each on a
fresh log and, when the history grows, a fresh copy of the loaded
history. A run measures whole cycles, so the i-th window of every cycle
meets the same log and history however fast the program is.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyspark
from pyspark.ml import PipelineModel
from pyspark.sql import SparkSession

import repro
from repro.broker.log import PartitionedLog
from repro.broker.producer import alarms_to_records, produce
from repro.broker.serializers import GsonishSerializer
from repro.core import verifier
from repro.datasets import sitasys
from repro.docstore.store import Collection, DocumentStore
from repro.streaming import consumer

# Training data, history and held-out set are fixed across runs; --seed
# draws the stream from the held-out set.
DATA_SEED = 11
# The deployed consumer's layout (jobs/throughput.py and
# repro.evaluation.throughput.prepare): 8 log partitions, segments of at
# most 25 K records, the stream repartitioned to 16 for scoring.
N_PARTITIONS = 8
RECORDS_PER_SEGMENT = 25_000
REPARTITION = 16
# Malformed lines per window in workloads that inject them.
INJECT_TRUNCATED = 2
INJECT_DRIFTED = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    sf: float  # Sitasys scale: half history and training set, half held out
    drain_alarms: int
    window_alarms: int
    cycle_windows: int  # windows per cycle of a windowed workload
    drain_warmup_rounds: int  # drains before timing
    window_warmup_rounds: int  # windows before timing
    fast_model: bool = False

    def round_alarms(self, workload: Workload) -> int:
        return self.drain_alarms if workload.drain else self.window_alarms

    def warmup_rounds(self, workload: Workload) -> int:
        if workload.drain:
            return self.drain_warmup_rounds
        return self.window_warmup_rounds


FULL = Scale(
    sf=0.05, drain_alarms=150_000, window_alarms=5_000, cycle_windows=3,
    drain_warmup_rounds=1, window_warmup_rounds=3,
)
TINY = Scale(
    sf=0.01, drain_alarms=3_000, window_alarms=400, cycle_windows=2,
    drain_warmup_rounds=1, window_warmup_rounds=1, fast_model=True,
)


@dataclass(frozen=True)
class Workload:
    """What a workload varies."""

    name: str
    algo: str
    drain: bool  # one fresh, pre-produced log per round
    growing: bool  # verified windows are appended to the history
    inject: bool  # malformed lines ride along in every window


WORKLOADS = {
    w.name: w
    for w in (
        Workload("drain_rf", "rf", drain=True, growing=False, inject=False),
        Workload("windows_rf", "rf", drain=False, growing=False, inject=False),
        Workload(
            "windows_lr_growing_history", "lr",
            drain=False, growing=True, inject=True,
        ),
    )
}


@dataclass
class Setup:
    """The trained model, the loaded history and the held-out alarms."""

    vm: verifier.VerificationModel
    history: Collection
    test_pdf: pd.DataFrame
    sizes: dict[str, int]
    phases_s: dict[str, float]
    train_s: float | None  # None when the model came from the cache


def model_key(algo: str, scale: Scale) -> str:
    """Hash of everything the trained model depends on: the program's
    source, this file (the scale and data seed) and the Spark version."""
    h = hashlib.sha256()
    src = Path(repro.__file__).resolve().parent
    for f in [*sorted(src.rglob("*.py")), Path(__file__).resolve()]:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    h.update(repr((algo, scale, DATA_SEED, pyspark.__version__)).encode())
    return f"{algo}-{h.hexdigest()[:16]}"


def trained_model(
    spark: SparkSession, train_pdf: pd.DataFrame, algo: str, scale: Scale,
    cache: Path | None, *, retrain: bool = False,
) -> tuple[verifier.VerificationModel, float | None]:
    """The model and its training time, trained once per version of the
    program in ``cache``; the time is None when it was loaded.

    Training the paper's forest costs more than the rest of a run's
    set-up; it is an offline step in the paper, so a checkout trains it
    on its first run and later runs load it. The key covers the source,
    so a change to the program retrains. ``retrain`` trains even when
    the cache holds the model, so that training is timed.
    """
    if cache is not None:
        entry = cache / model_key(algo, scale)
        if not retrain and (entry / "meta.json").exists():
            meta = json.loads((entry / "meta.json").read_text())
            model = PipelineModel.load(str(entry / "model"))
            return verifier.VerificationModel(model=model, **meta), None
    t0 = time.perf_counter()
    vm = verifier.train(
        spark.createDataFrame(train_pdf), algo=algo, dataset="sitasys",
        fast=scale.fast_model,
    )
    train_s = time.perf_counter() - t0
    if cache is not None:
        tmp = cache / f"{entry.name}.tmp-{os.getpid()}"
        vm.model.save(str(tmp / "model"))
        meta = {
            "algo": vm.algo, "dataset": vm.dataset, "input_dim": vm.input_dim,
            "delta_t_s": vm.delta_t_s, "extra_numeric": list(vm.extra_numeric),
        }
        (tmp / "meta.json").write_text(json.dumps(meta))
        try:
            os.replace(tmp, entry)
        except OSError:  # stored by an earlier or concurrent run
            shutil.rmtree(tmp, ignore_errors=True)
    return vm, train_s


def set_up(
    spark: SparkSession, workdir: Path, workload: Workload, scale: Scale,
    model_cache: Path | None, *, retrain: bool = False,
) -> Setup:
    """Generate the alarms, get the model and load the history."""
    t0 = time.perf_counter()
    # generate_pandas shuffles its rows, so the halves are random samples.
    # As in the deployed path (repro.evaluation.throughput.prepare), the
    # model is trained on the whole history half.
    pdf = sitasys.generate_pandas(
        sf=scale.sf, seed=DATA_SEED, basel_exact=False
    ).drop(columns="latent_true")
    half = len(pdf) // 2
    hist_pdf = pdf.iloc[:half]
    test_pdf = pdf.iloc[half:].reset_index(drop=True)
    t1 = time.perf_counter()
    vm, train_s = trained_model(
        spark, hist_pdf, workload.algo, scale, model_cache, retrain=retrain
    )
    t2 = time.perf_counter()
    history = DocumentStore(workdir / "store").collection("alarms")
    history.insert_many(spark, hist_pdf)
    t3 = time.perf_counter()
    return Setup(
        vm=vm,
        history=history,
        test_pdf=test_pdf,
        sizes={
            "history_rows": len(hist_pdf),
            "train_rows": len(hist_pdf),
            "held_out_rows": len(test_pdf),
        },
        phases_s={"data_s": t1 - t0, "model_s": t2 - t1, "history_load_s": t3 - t2},
        train_s=train_s,
    )


def fresh_history(setup: Setup, root: Path) -> Collection:
    """A copy of the loaded history under ``root``, for a growing cycle."""
    copy = DocumentStore(root).collection(setup.history.name)
    shutil.copytree(setup.history.path, copy.path)
    return copy


@dataclass
class Window:
    """One window of records as the generator sent it."""

    ids: np.ndarray  # ids of the well-formed alarms
    src: np.ndarray  # held-out row each well-formed alarm was drawn from
    records: list[dict]  # every record sent, injected ones too, in log order
    truncated_ids: np.ndarray
    drifted_ids: np.ndarray
    serializer: object

    def alarms(self, test_pdf: pd.DataFrame) -> pd.DataFrame:
        """The well-formed alarms as history rows."""
        return test_pdf.iloc[self.src].reset_index(drop=True).assign(alarm_id=self.ids)


class TruncatingSerializer(GsonishSerializer):
    """The producer's serializer, cutting the lines of chosen ids in half."""

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = {int(i) for i in ids}

    def dumps(self, record: dict) -> str:
        line = super().dumps(record)
        return line[: len(line) // 2] if record["alarm_id"] in self._ids else line


class AlarmGenerator:
    """Draws held-out alarms with replacement, with ids unique over a run.

    ``producer_sim.stream_from_test_set`` numbers alarms 1..n on every
    call, so a log it feeds window by window carries duplicate ids; the
    generator numbers them itself and writes through ``produce``.
    """

    def __init__(self, test_pdf: pd.DataFrame, seed: int, inject: bool) -> None:
        self._records = alarms_to_records(test_pdf)
        self._rng = np.random.default_rng(seed)
        self._next_id = 1
        self._n_bad = INJECT_TRUNCATED + INJECT_DRIFTED if inject else 0

    def window(self, n: int) -> Window:
        total = n + self._n_bad
        src = self._rng.integers(0, len(self._records), total)
        ids = np.arange(self._next_id, self._next_id + total, dtype="int64")
        self._next_id += total
        records = [
            dict(self._records[s], alarm_id=i) for s, i in zip(src.tolist(), ids.tolist())
        ]
        good = np.ones(total, dtype=bool)
        truncated = drifted = ids[:0]
        serializer = GsonishSerializer()
        if self._n_bad:
            bad = self._rng.choice(total, self._n_bad, replace=False)
            good[bad] = False
            truncated = ids[bad[:INJECT_TRUNCATED]]
            drifted = ids[bad[INJECT_TRUNCATED:]]
            for i in bad[INJECT_TRUNCATED:]:
                records[i]["fault_code"] = f"E{records[i]['fault_code']}"
            serializer = TruncatingSerializer(truncated)
        return Window(
            ids=ids[good],
            src=src[good],
            records=records,
            truncated_ids=truncated,
            drifted_ids=drifted,
            serializer=serializer,
        )


class Stream:
    """A log with the consumer's checkpoint and sink directories."""

    def __init__(self, root: Path) -> None:
        self.log = PartitionedLog(root / "log", n_partitions=N_PARTITIONS)
        self.out_dir = str(root / "out")
        self.checkpoint_dir = str(root / "ckpt")

    def segments(self) -> set[Path]:
        return set(self.log.root.glob("partition=*/segment-*.jsonl"))


@dataclass
class Round:
    """What one closed-loop round sent, saw and took."""

    index: int
    window: Window
    stream: Stream
    segments: list[Path]  # log segments this round wrote
    history: Collection  # the history the consumer read
    history_files: list[str]  # history parts as they stood at verification
    metrics: consumer.ConsumerMetrics
    produce_s: float
    latency_s: float  # last segment landed -> run_available returned
    insert_s: float | None  # history append, growing workloads only
    busy_s: float = 0.0  # generation + produce + verification + append
    query_mark: int = 0  # listener position before the round's query
    probes: dict[str, float] = field(default_factory=dict)


def run_round(
    spark: SparkSession,
    setup: Setup,
    stream: Stream,
    window: Window,
    history: Collection,
    grow: bool,
    tracer,
    parent: int | None,
) -> Round:
    """Produce one window, drain it against ``history``, and append it
    to ``history`` if ``grow``."""
    before = stream.segments()
    with tracer.span("broker.produce", parent):
        stats = produce(
            stream.log,
            window.records,
            serializer=window.serializer,
            records_per_segment=RECORDS_PER_SEGMENT,
        )
    t_land = time.perf_counter()
    history_files = sorted(str(p) for p in history.path.glob("part-*"))
    mark = tracer.query_mark()
    with tracer.span("streaming.run_available", parent):
        metrics = consumer.run_available(
            spark,
            stream.log,
            setup.vm,
            history,
            stream.out_dir,
            stream.checkpoint_dir,
            repartition=REPARTITION,
        )
    t_done = time.perf_counter()
    insert_s = None
    if grow:
        with tracer.span("docstore.insert_many", parent):
            history.insert_many(spark, window.alarms(setup.test_pdf))
        insert_s = time.perf_counter() - t_done
    return Round(
        index=-1,
        window=window,
        stream=stream,
        segments=sorted(stream.segments() - before),
        history=history,
        history_files=history_files,
        metrics=metrics,
        produce_s=stats.elapsed_s,
        latency_s=t_done - t_land,
        insert_s=insert_s,
        query_mark=mark,
    )


def warm_up(
    spark: SparkSession, setup: Setup, workload: Workload, scale: Scale,
    workdir: Path, tracer, on_round=None,
) -> None:
    """Rounds like the measured ones, in their own directories, so that
    JIT compilation, heap growth and the consumer's first queries are
    not charged to the measurement: after a 50 K warm-up drain the first
    150 K drain took 1.2x as long as the second, and windows keep getting
    faster over their first five or so. One 150 K drain is what a run's
    time allows; in some runs the next drain is still slower. A growing
    workload's warm-up appends to its own copy of the history."""
    gen = AlarmGenerator(setup.test_pdf, 0, workload.inject)
    rounds, n = scale.warmup_rounds(workload), scale.round_alarms(workload)
    shared = Stream(workdir / "warmup")
    history = (
        fresh_history(setup, workdir / "warmup-store")
        if workload.growing else setup.history
    )
    for i in range(rounds):
        stream = Stream(workdir / f"warmup-{i}") if workload.drain else shared
        r = run_round(
            spark, setup, stream, gen.window(n), history, workload.growing, tracer, None
        )
        if on_round is not None:
            on_round(r)


def measure(
    spark: SparkSession,
    setup: Setup,
    workload: Workload,
    scale: Scale,
    *,
    seed: int,
    seconds: float,
    min_rounds: int,
    workdir: Path,
    tracer,
    on_round=None,
) -> list[Round]:
    """Closed-loop rounds until ``seconds`` of loop time have passed.

    Only whole cycles run: a drain is a cycle of its own; a windowed
    cycle is ``scale.cycle_windows`` windows on a fresh log and, when the
    history grows, a fresh copy of the history, set up with the loop
    clock stopped. ``on_round`` (the traced run's per-layer probes) is
    called between rounds, also with the clock stopped.
    """
    gen = AlarmGenerator(setup.test_pdf, seed, workload.inject)
    n = scale.round_alarms(workload)
    k = 1 if workload.drain else scale.cycle_windows
    rounds: list[Round] = []
    busy = 0.0
    while len(rounds) < min_rounds or busy < seconds or len(rounds) % k:
        if len(rounds) % k == 0:
            cycle = workdir / f"cycle-{len(rounds) // k}"
            stream = Stream(cycle)
            history = (
                fresh_history(setup, cycle / "store")
                if workload.growing else setup.history
            )
        t0 = time.perf_counter()
        with tracer.span("round") as rid:
            window = gen.window(n)
            r = run_round(
                spark, setup, stream, window, history, workload.growing, tracer, rid
            )
        r.index = len(rounds)
        r.busy_s = time.perf_counter() - t0
        busy += r.busy_s
        rounds.append(r)
        if on_round is not None:
            on_round(r)
    return rounds
