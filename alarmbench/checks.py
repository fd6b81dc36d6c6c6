"""Checks of the pipeline's outputs against computations made apart from it.

- The sink's ``alarm_id``s equal the ids the generator sent, each once.
- ``past_alarms`` and ``active_days`` equal a DuckDB query over the
  history's parquet parts as they stood when the window was verified.
- Every verdict equals a batch ``PipelineModel.transform`` of the same
  held-out alarm; for logistic regression the confidence also equals a
  numpy sigmoid of the model's coefficients on the hashed vector.
- ``confidence`` lies in [0.5, 1].
- Accuracy against the duration labels computed here beats the
  majority-class share.

A missing, duplicated or wrong alarm is a failed operation, and so is
an injected malformed record that shows up among the verdicts.
Anything else that does not hold makes the run incorrect.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import duckdb
import numpy as np
import pandas as pd
from pyspark.ml import PipelineModel
from pyspark.ml.functions import vector_to_array
from pyspark.sql import SparkSession

from repro.core import verifier
from repro.core.features import FEATURES_COL

from alarmbench.pipeline import Round

TOL = 1e-9
SINK_COLS = "alarm_id, device_mac, verification, confidence, past_alarms, active_days"


def batch_expectations(
    spark: SparkSession, vm: verifier.VerificationModel, test_pdf: pd.DataFrame
) -> pd.DataFrame:
    """Per held-out row: the batch verdict, its confidence and the label.

    ``p1`` (logistic regression only) is the sigmoid of the model's
    coefficients on the encoder's hashed vector, computed with numpy.
    """
    src = np.arange(len(test_pdf))
    sdf = spark.createDataFrame(test_pdf.assign(src=src))
    scored = (
        vm.model.transform(sdf)
        .select("src", "prediction", vector_to_array("probability").alias("prob"))
        .toPandas()
        .sort_values("src")
    )
    exp = pd.DataFrame(
        {
            "pred": scored["prediction"].to_numpy() == 1.0,
            "conf": scored["prob"].map(max).to_numpy(),
            "label": test_pdf["duration_s"].to_numpy() >= vm.delta_t_s,
        }
    )
    if vm.algo == "lr":
        lr = vm.model.stages[-1]
        coef = lr.coefficients.toArray()
        hashed = (
            PipelineModel(vm.model.stages[:-1]).transform(sdf)
            .select("src", FEATURES_COL).collect()
        )
        z = np.empty(len(test_pdf))
        for row in hashed:
            z[row["src"]] = row[FEATURES_COL].dot(coef) + lr.intercept
        exp["p1"] = 1.0 / (1.0 + np.exp(-z))
    return exp


def _sql_list(paths: list[str]) -> str:
    return "[" + ", ".join("'" + p.replace("'", "''") + "'" for p in paths) + "]"


def history_counts(con, files: list[str], tz: str) -> pd.DataFrame:
    """Per device: rows and distinct days in exactly these parquet parts.

    Spark writes instants; days are counted in the session time zone
    ``tz``, as the consumer's ``to_date`` does.
    """
    return con.execute(
        f"""
        SELECT device_mac,
               count(*) AS exp_past,
               count(DISTINCT CAST(timezone('{tz}', ts AT TIME ZONE 'UTC') AS DATE))
                   AS exp_days
        FROM read_parquet({_sql_list(files)})
        GROUP BY device_mac
        """
    ).fetchdf()


def read_sink(con, out_dirs: list[str]) -> pd.DataFrame:
    globs = [f"{d}/*.parquet" for d in out_dirs]
    return con.execute(f"SELECT {SINK_COLS} FROM read_parquet({_sql_list(globs)})").fetchdf()


@dataclass
class Sent:
    """What the generator sent over a run."""

    ids: pd.DataFrame  # alarm_id, src, round of every well-formed alarm
    drifted_ids: np.ndarray
    n_truncated: int

    @property
    def attempted(self) -> int:
        return len(self.ids) + len(self.drifted_ids) + self.n_truncated


def sent_by(rounds: list[Round]) -> Sent:
    return Sent(
        ids=pd.concat(
            [
                pd.DataFrame(
                    {"alarm_id": r.window.ids,
                     "src": r.window.src, "round": r.index}
                )
                for r in rounds
            ],
            ignore_index=True,
        ),
        drifted_ids=np.concatenate([r.window.drifted_ids for r in rounds]),
        n_truncated=sum(len(r.window.truncated_ids) for r in rounds),
    )


@dataclass
class Verdict:
    attempted: int
    failed: int
    accuracy: float = float("nan")
    majority: float = float("nan")
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def check(
    sink: pd.DataFrame,
    sent: Sent,
    exp: pd.DataFrame,
    history: pd.DataFrame,
) -> Verdict:
    """Count failed operations; note whatever else does not hold.

    ``history`` holds the expected counts per (round, device_mac).
    """
    v = Verdict(attempted=sent.attempted, failed=0)
    null = sink["alarm_id"].isna()
    n_null = int(null.sum())
    v.failed += min(n_null, sent.n_truncated)
    if n_null > sent.n_truncated:
        v.problems.append(f"{n_null - sent.n_truncated} verdicts without an alarm_id")
    rows = sink[~null].astype({"alarm_id": "int64"})
    drifted = rows["alarm_id"].isin(sent.drifted_ids)
    v.failed += int(rows.loc[drifted, "alarm_id"].nunique())
    rows = rows[~drifted]
    unknown = ~rows["alarm_id"].isin(sent.ids["alarm_id"])
    if unknown.any():
        v.problems.append(f"{int(unknown.sum())} verdicts for ids never sent")
    rows = rows[~unknown]

    counts = rows["alarm_id"].value_counts()
    once = counts.index[counts == 1]
    v.failed += len(sent.ids) - len(once)  # missing or duplicated
    ok = (
        rows[rows["alarm_id"].isin(once)]
        .merge(sent.ids, on="alarm_id")
        .merge(history, on=["round", "device_mac"], how="left")
        .fillna({"exp_past": 0, "exp_days": 0})
    )
    e = exp.iloc[ok["src"].to_numpy()].reset_index(drop=True)
    verif = ok["verification"].to_numpy(dtype=bool)
    conf = ok["confidence"].to_numpy(dtype=float)
    wrong = (
        (verif != e["pred"].to_numpy())
        | (np.abs(conf - e["conf"].to_numpy()) > TOL)
        | (conf < 0.5) | (conf > 1.0)
        | (ok["past_alarms"].to_numpy() != ok["exp_past"].to_numpy())
        | (ok["active_days"].to_numpy() != ok["exp_days"].to_numpy())
    )
    if "p1" in e:
        p1 = e["p1"].to_numpy()
        wrong |= (np.abs(conf - np.maximum(p1, 1.0 - p1)) > TOL) | (verif != (p1 > 0.5))
    v.failed += int(wrong.sum())

    good = ~wrong
    if good.any():
        label = e["label"].to_numpy()[good]
        v.accuracy = float(np.mean(verif[good] == label))
        v.majority = float(max(label.mean(), 1.0 - label.mean()))
    if not v.accuracy > v.majority:
        v.problems.append(
            f"accuracy {v.accuracy:.4f} does not beat the majority share {v.majority:.4f}"
        )
    return v


def check_run(
    spark: SparkSession, setup, rounds: list[Round]
) -> tuple[Verdict, pd.DataFrame, Sent, pd.DataFrame, pd.DataFrame]:
    """Check every round of a run; returns the verdict and its inputs."""
    tz = spark.conf.get("spark.sql.session.timeZone")
    exp = batch_expectations(spark, setup.vm, setup.test_pdf)
    sent = sent_by(rounds)
    con = duckdb.connect()
    try:
        sink = read_sink(con, sorted({r.stream.out_dir for r in rounds}))
        by_files: dict[tuple[str, ...], pd.DataFrame] = {}
        parts = []
        for r in rounds:
            key = tuple(r.history_files)
            if key not in by_files:
                by_files[key] = history_counts(con, r.history_files, tz)
            parts.append(by_files[key].assign(round=r.index))
        history = pd.concat(parts, ignore_index=True)
    finally:
        con.close()
    v = check(sink, sent, exp, history)
    for r in rounds:
        if r.metrics.n_alarms != len(r.window.records):
            v.problems.append(
                f"round {r.index}: consumer counted {r.metrics.n_alarms} alarms, "
                f"{len(r.window.records)} were sent"
            )
    return v, sink, sent, exp, history
