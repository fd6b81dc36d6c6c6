"""Alarm-pipeline benchmark: producer -> log -> streaming consumer -> sink.

Run from the repository root::

    python3 alarmbench/run.py --workload drain_rf --seed 1 --seconds 16 --trace 0
    python3 alarmbench/run.py --self-check

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead, and the run's spans are written to
``.alarmbench/``. The line before it describes the run (commit, cores,
versions, input sizes, micro-batches, set-up phases). ``--self-check``
runs every workload at a tiny size and checks that the output checks
pass and catch tampered output. See ``alarmbench/README.md``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".alarmbench"  # spans, and each run's scratch directory

END_TO_END_UNITS = {
    "alarms_per_s": "alarms/s",
    "window_latency_p50_s": "s",
    "setup_s": "s",
}


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 (as the tier-1 command)."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def start_spark(work: Path, cores: int):
    """A session with the jobs' settings on ``local[cores]``; all scratch
    space (Spark's, the JVM's and Python's) lives under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {driver_memory()}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.local.dir={work / 'spark-local'}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={work / 'warehouse'}"),
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ]
    )
    from jobs._common import get_spark

    spark = get_spark("alarmbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def driver_peak_rss_mb(spark) -> float:
    """VmHWM of the driver JVM, from its /proc status."""
    pid = spark.sparkContext._jvm.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024.0


def cpu_times() -> list[int]:
    """The machine's aggregate CPU jiffies from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took between two readings: a run
    measured while it was high was slowed by other guests."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        p = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def end_to_end(workload, rounds, setup_s: float) -> dict[str, float]:
    """The metrics a user of the pipeline sees."""
    # A drain's clock is the drain itself; a window loop's clock also
    # covers generation, produce and the history append.
    clock = sum(r.latency_s if workload.drain else r.busy_s for r in rounds)
    return {
        "alarms_per_s": sum(len(r.window.ids) for r in rounds) / clock,
        "window_latency_p50_s": statistics.median(r.latency_s for r in rounds),
        "setup_s": setup_s,
    }


@dataclass
class Outcome:
    """Everything one workload run produced."""

    workload: object
    setup: object
    setup_s: float
    rounds: list
    steal_share: float
    rss_mb: float
    verdict: object
    tracer: object
    checked: tuple  # the check's inputs: sink, sent, expectations, history


def run_workload(
    spark, name: str, scale, *, seed, seconds, min_rounds, trace, work, model_cache
) -> Outcome:
    """Set up, warm up, measure and check one workload."""
    from alarmbench import checks, pipeline, tracing

    workload = pipeline.WORKLOADS[name]
    tracer = tracing.Tracer(tracing.ProgressListener() if trace else None)
    if trace:
        spark.streams.addListener(tracer.listener)
    # A traced run trains even when the model is cached, for core.train_s.
    setup = pipeline.set_up(spark, work, workload, scale, model_cache, retrain=trace)
    prober = tracing.Prober(spark, setup, work / "probes", tracer) if trace else None
    t = time.perf_counter()
    pipeline.warm_up(spark, setup, workload, scale, work, tracer, prober)
    setup.phases_s["warmup_s"] = time.perf_counter() - t
    # Move the set-up's objects (held-out records, frames, py4j proxies)
    # out of the collector's reach, so that full collections triggered by
    # the producer or the consumer's Python handler do not scan the
    # benchmark's own heap.
    gc.collect()
    gc.freeze()
    setup_s = time.perf_counter() - T_START
    before = cpu_times()
    rounds = pipeline.measure(
        spark, setup, workload, scale, seed=seed, seconds=seconds,
        min_rounds=min_rounds, workdir=work, tracer=tracer, on_round=prober,
    )
    steal = steal_share(before, cpu_times())
    rss = driver_peak_rss_mb(spark)
    if trace:
        spark.streams.removeListener(tracer.listener)
    verdict, *checked = checks.check_run(spark, setup, rounds)
    return Outcome(workload, setup, setup_s, rounds, steal, rss, verdict, tracer, tuple(checked))


def benchmark(args, cores: int, work: Path) -> dict:
    from alarmbench import pipeline, tracing

    if args.workload not in pipeline.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(pipeline.WORKLOADS)}")
    t = time.perf_counter()
    spark = start_spark(work, cores)
    spark_start_s = time.perf_counter() - t
    try:
        # At least two rounds, so that a drain's latency is never one sample.
        o = run_workload(
            spark, args.workload, pipeline.FULL, seed=args.seed,
            seconds=args.seconds, min_rounds=2, trace=bool(args.trace), work=work,
            model_cache=STATE / "models",
        )
        workload, setup, rounds, verdict = o.workload, o.setup, o.rounds, o.verdict
        e2e = end_to_end(workload, rounds, o.setup_s)
        info = {
            "workload": workload.name,
            "seed": args.seed,
            "git_sha": git_sha(),
            "cores": cores,
            "pyspark": spark.version,
            "java": spark.sparkContext._jvm.System.getProperty("java.version"),
            "driver_memory": driver_memory(),
            "model": setup.vm.algo,
            "model_nodes": tracing.model_nodes(setup.vm),
            "model_from_cache": setup.train_s is None,
            "sizes": {
                **setup.sizes,
                "alarms_per_round": len(rounds[0].window.ids),
                "records_per_round": len(rounds[0].window.records),
            },
            "rounds": len(rounds),
            "micro_batches": sum(r.metrics.n_batches for r in rounds),
            "setup_phases_s": {"spark_start_s": spark_start_s, **setup.phases_s},
            "loop_s": sum(r.busy_s for r in rounds),
            "loop_steal_share": o.steal_share,
            "driver_peak_rss_mb": o.rss_mb,
            "round_latency_s": [r.latency_s for r in rounds],
            "round_produce_s": [r.produce_s for r in rounds],
            "round_busy_s": [r.busy_s for r in rounds],
            "accuracy": verdict.accuracy,
            "majority_share": verdict.majority,
            "problems": verdict.problems,
        }
        if args.trace:
            spans = STATE / f"spans-{workload.name}-seed{args.seed}.jsonl"
            o.tracer.write(spans)
            info["spans"] = str(spans.relative_to(ROOT))
            metrics = tracing.per_layer(rounds, e2e["alarms_per_s"], o.rss_mb, setup.train_s)
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, units = e2e, END_TO_END_UNITS
    finally:
        stop_spark(spark)
    print(json.dumps({"info": info}))
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def self_check(cores: int, work: Path) -> bool:
    """Every workload at a tiny size, traced: the checks must pass with
    exactly the injected failures, and must catch tampered output."""
    import pandas as pd

    from alarmbench import checks, pipeline, tracing

    spark = start_spark(work, cores)
    ok = True
    try:
        for name, workload in pipeline.WORKLOADS.items():
            o = run_workload(
                spark, name, pipeline.TINY, seed=7, seconds=0, min_rounds=2,
                trace=True, work=work / name, model_cache=None,
            )
            rounds, v = o.rounds, o.verdict
            sink, sent, exp, history = o.checked
            expected_failed = sent.n_truncated + len(sent.drifted_ids)
            missing = [m for m in tracing.PER_LAYER_UNITS
                       if m not in tracing.RUN_LEVEL and m not in rounds[0].probes]
            good = (
                v.correct and v.failed == expected_failed
                and expected_failed == (len(rounds) * 4 if workload.inject else 0)
                and not missing
            )
            print(f"[self-check] {name}: rounds={len(rounds)} attempted={v.attempted} "
                  f"failed={v.failed} (expected {expected_failed}) "
                  f"accuracy={v.accuracy:.3f} majority={v.majority:.3f} "
                  f"problems={v.problems} missing={missing} -> {'ok' if good else 'FAIL'}")
            ok &= good
            valid = sink[sink["alarm_id"].isin(sent.ids["alarm_id"])]
            first = valid.index[0]
            tampered = {
                "dropped": sink.drop(index=first),
                "duplicated": pd.concat([sink, valid.loc[[first]]], ignore_index=True),
                "flipped": sink.assign(verification=sink["verification"].where(
                    sink.index != first, ~sink["verification"].astype(bool))),
                "wrong_history": sink.assign(past_alarms=sink["past_alarms"].where(
                    sink.index != first, sink["past_alarms"] + 1)),
            }
            for what, bad in tampered.items():
                tv = checks.check(bad, sent, exp, history)
                caught = tv.failed == v.failed + 1
                print(f"[self-check] {name}: {what} alarm -> failed={tv.failed} "
                      f"{'caught' if caught else 'MISSED'}")
                ok &= caught
            stranger = pd.concat([sink, valid.loc[[first]].assign(alarm_id=10**12)], ignore_index=True)
            caught = not checks.check(stranger, sent, exp, history).correct
            print(f"[self-check] {name}: verdict for an id never sent -> "
                  f"{'caught' if caught else 'MISSED'}")
            ok &= caught
    finally:
        stop_spark(spark)
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="drain_rf")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "repro", ROOT / "jobs" / "_common.py"):
        if not needed.exists():
            print(f"alarmbench: {needed.relative_to(ROOT)} is missing; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    cores = len(os.sched_getaffinity(0))
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.self_check:
            return 0 if self_check(cores, work) else 1
        result = benchmark(args, cores, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
