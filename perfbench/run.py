"""One-command BClean benchmark: fit / clean / re-clean latency and F1.

Run from the repository root:

    python3 perfbench/run.py --workload soccer_pip --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one round with every layer wrapped
(``perfbench/tracing.py``) and reports the per-layer metrics.
Both print each metric with its unit, then one JSON object as the last
line of standard output, and exit non-zero when an output check fails.
See ``perfbench/README.md`` for the workloads, the Spark configuration
and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_TMP = ROOT / ".bench_tmp"

CORES = min(4, len(os.sched_getaffinity(0)))
DRIVER_MEMORY = "3g"
SPARK_CONF = {
    "spark.master": f"local[{CORES}]",
    "spark.sql.shuffle.partitions": str(CORES),
    "spark.default.parallelism": str(CORES),
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
WARM_SCALE = 0.2       # warm-up dataset size, as a share of the workload's
OP_TIMEOUT_S = 90.0    # a timed op running longer counts as failed
RUN_BUDGET_S = 150.0   # start no round that would end after this


@dataclass(frozen=True)
class Workload:
    dataset: str
    variant: str
    fit_edits: bool      # pass the dataset's §7.3.2 network edits to fit
    cleans: int          # clean() calls per round on the fitted network
    edit_rounds: int     # apply edits -> clean -> revert -> clean, per round


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "hospital_pi": Workload("hospital", "PI", True, 4, 0),
    "soccer_pip": Workload("soccer", "PIP", True, 1, 0),
    "flights_edit": Workload("flights", "PI", False, 1, 2),
}

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "clean_s": "s", "total_s": "s",
    "cells_per_s": "1/s", "reclean_s": "s", "f1": "ratio",
    "precision": "ratio", "recall": "ratio", "driver_peak_rss_mb": "MB",
}

PER_LAYER = {
    "structure.observations_s": "s", "structure.observation_rows": "count",
    "structure.spark_jobs": "count", "similarity.pairs": "count",
    "similarity.series_s": "s", "similarity.us_per_pair": "us",
    "glasso.learn_skeleton_s": "s", "structure.edge_filter_s": "s",
    "structure.edges_learned": "count", "structure.edges_dropped": "count",
    "structure.edges_reversed": "count",
    "compensatory.corr_counts_s": "s", "compensatory.corr_rows": "count",
    "compensatory.spark_jobs": "count", "compensatory.build_index_s": "s",
    "cpt.cpt_counts_s": "s", "cpt.cpt_counts_calls": "count",
    "cpt.value_counts_s": "s", "cpt.spark_jobs": "count",
    "model.assemble_s": "s", "model.pickle_bytes": "bytes",
    "model.pickle_s": "s", "network.apply_edits_s": "s",
    "network.affected_attrs": "count", "inference.run_inference_s": "s",
    "inference.spark_jobs": "count", "inference.cells": "count",
    "inference.clean_batch_s": "s", "inference.us_per_cell": "us",
    "inference.repairs": "count", "compensatory.corr_lookups": "count",
    "pruning.tuple_filter_calls": "count", "pruning.cells_skipped": "count",
    "pruning.skip_ratio": "ratio", "pruning.domain_prune_calls": "count",
    "pruning.candidates_kept_mean": "count",
    "pruning.candidate_keep_ratio": "ratio", "spark.session_start_s": "s",
    "datasets.load_task_s": "s", "cleaner.fit_self_s": "s",
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# Spark session: pinned configuration, files kept inside the checkout
# ----------------------------------------------------------------------
def start_spark(tmp: Path):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # -XX:-UsePerfData: no hsperfdata file under /tmp.
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {SPARK_CONF['spark.master']} "
        f"--driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {java_opts} pyspark-shell")
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in {**SPARK_CONF, "spark.local.dir": str(tmp)}.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
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
        if proc.stdin is not None:
            proc.stdin.close()   # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# Timed ops and output checks
# ----------------------------------------------------------------------
@dataclass
class Recorder:
    """Samples per metric, plus the op and check tallies of one run."""
    sc: object
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def op(self, what: str, fn):
        """Run one timed op. Returns (result, seconds), or (None, None)
        when it raised or overran ``OP_TIMEOUT_S`` (its Spark jobs are
        cancelled then)."""
        self.attempted += 1
        timer = threading.Timer(OP_TIMEOUT_S, self.sc.cancelAllJobs)
        timer.daemon = True
        timer.start()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an op failure is a measurement
            self.fail(f"{what} raised {exc!r}"[:500])
            return None, None
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
        if seconds > OP_TIMEOUT_S:
            self.fail(f"{what} took {seconds:.1f} s")
            return None, None
        return out, seconds

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def by_tid(df):
    """Frame sorted by tid, index reset, every cell as str: the form two
    repairs are compared in."""
    out = df.astype(str)
    order = out["tid"].astype(int).argsort(kind="stable")
    return out.iloc[order].reset_index(drop=True)


def check_output(out, dirty, domains: dict) -> list[str]:
    """Problems with one clean() result: each dirty tid exactly once,
    the dirty frame's columns, and every changed cell's new value drawn
    from its attribute's observed domain (§2: candidates are dom(A_j))."""
    if list(out.columns) != list(dirty.columns):
        return [f"columns {list(out.columns)} != {list(dirty.columns)}"]
    tids = out["tid"].astype(str)
    want = dirty["tid"].astype(str)
    if len(out) != len(dirty) or tids.duplicated().any() \
            or set(tids) != set(want):
        return ["tids differ from the dirty frame's or repeat"]
    got, ref = by_tid(out), by_tid(dirty)
    problems = []
    for a in domains:
        changed = got[a] != ref[a]
        outside = ~got.loc[changed, a].isin(domains[a])
        if outside.any():
            problems.append(f"{int(outside.sum())} repairs of {a} outside "
                            "its observed domain")
    return problems


# ----------------------------------------------------------------------
# One round of a workload
# ----------------------------------------------------------------------
@dataclass
class Round:
    bclean: object
    first: object                 # the clean() right after fit
    edited: object = None         # the first clean() after the edits
    fit_s: float = 0.0
    clean_s: list = field(default_factory=list)


def network_diff(before: set, after: set) -> list[tuple]:
    """The edits that turn network ``after`` back into ``before``."""
    return ([("remove", u, v) for (u, v) in sorted(after - before)]
            + [("add", u, v) for (u, v) in sorted(before - after)])


def run_round(spark, wl: Workload, task, rec: Recorder, domains,
              tracer=None, cleans: int | None = None) -> Round | None:
    from repro.core.cleaner import BClean

    bc = BClean(wl.variant)
    phase = tracer.in_phase if tracer else (lambda _: nullcontext())
    if tracer:
        tracer.bclean = bc
    edits = task.bn_edits if wl.fit_edits else None
    with phase("fit"):
        fitted, fit_s = rec.op("fit", lambda: bc.fit(
            spark, task.dirty, ucs=task.ucs,
            numeric_attrs=task.numeric_attrs, bn_edits=edits))
    if fitted is None:
        return None
    rnd = Round(bc, None, fit_s=fit_s)

    def clean(what: str, expect=None):
        with phase("clean"):
            out, s = rec.op(what, bc.clean)
        if out is None:
            return None
        rnd.clean_s.append(s)
        problems = check_output(out, task.dirty, domains)
        if expect is not None and not by_tid(out).equals(by_tid(expect)):
            problems.append(f"{what} differs from its reference repair")
        if problems:
            rec.fail(f"{what}: " + "; ".join(problems))
        return out

    def reclean(what: str, edit_list, expect=None):
        with phase("edit"):
            affected, apply_s = rec.op(
                f"{what} edits", lambda: bc.apply_network_edits(edit_list))
        if affected is None:
            return None
        out = clean(what, expect)
        if out is not None:
            rec.add("reclean_s", apply_s + rnd.clean_s[-1])
        return out

    for i in range(wl.cleans if cleans is None else cleans):
        if wl.edit_rounds:
            # the plain clean() before the user edits anything
            out = clean(f"clean {i}", rnd.first)
        else:
            # the user loop with nothing to edit
            out = reclean(f"clean {i}", [], rnd.first)
        if out is None:
            return rnd
        rnd.first = out if rnd.first is None else rnd.first
    for i in range(wl.edit_rounds):
        before = set(bc.network.edges())
        out = reclean(f"re-clean {i} (edits)", task.bn_edits, rnd.edited)
        if out is None:
            return rnd
        rnd.edited = out if rnd.edited is None else rnd.edited
        revert = network_diff(before, set(bc.network.edges()))
        if reclean(f"re-clean {i} (reverted)", revert, rnd.first) is None:
            return rnd
    return rnd


def edit_reference(spark, wl: Workload, task, rnd: Round, rec: Recorder):
    """Outside the timed ops: the re-clean after the edits must equal
    clean() from a fit made with the edits."""
    from repro.core.cleaner import BClean

    if rnd.edited is None:
        return
    ref = BClean(wl.variant).fit(
        spark, task.dirty, ucs=task.ucs, numeric_attrs=task.numeric_attrs,
        bn_edits=task.bn_edits).clean()
    if not by_tid(ref).equals(by_tid(rnd.edited)):
        rec.problems.append("re-clean after the edits differs from clean() "
                            "of a fit made with the edits")


def record_round(rec: Recorder, task, rnd: Round) -> None:
    from repro.eval.metrics import score_repair

    rec.add("fit_s", rnd.fit_s)
    for s in rnd.clean_s:
        rec.add("clean_s", s)
    if rnd.first is not None:
        sc = score_repair(task.clean, task.dirty, rnd.first)
        rec.add("f1", sc.f1)
        rec.add("precision", sc.precision)
        rec.add("recall", sc.recall)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def set_up(spark, wl: Workload, seed: int, scale: float, layer: dict):
    """Load the workload's data, then warm the JVM and the Python
    workers with one untimed round on a small instance of it (a cold
    first fit costs about half again a warm one)."""
    from repro.datasets.registry import load_task

    start = time.perf_counter()
    task = load_task(wl.dataset, seed=seed, scale=scale)
    layer["datasets.load_task_s"] = time.perf_counter() - start
    warm = load_task(wl.dataset, seed=seed, scale=scale * WARM_SCALE)
    scratch = Recorder(spark.sparkContext)
    run_round(spark, wl, warm, scratch, observed_domains(warm.dirty))
    # Not counted: the same checks run again on every timed op.
    for p in scratch.problems:
        print(f"perfbench: warm-up: {p}"[:500], file=sys.stderr)
    return task


def observed_domains(dirty) -> dict:
    return {a: set(dirty[a].astype(str)) - {""}
            for a in dirty.columns if a != "tid"}


def end_to_end(rec: Recorder, task, setup_s: float) -> dict:
    cells = len(task.dirty) * (task.dirty.shape[1] - 1)
    fit_s, clean_s = rec.median("fit_s"), rec.median("clean_s")
    return {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "clean_s": clean_s,
        "total_s": fit_s + clean_s,
        "cells_per_s": cells / (fit_s + clean_s),
        "reclean_s": rec.median("reclean_s"),
        "f1": rec.median("f1"),
        "precision": rec.median("precision"),
        "recall": rec.median("recall"),
        "driver_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(spark, wl, task, rec, seconds: float,
            run_start: float) -> list[Round]:
    """Rounds until ``seconds`` of measuring have passed (at least one)."""
    domains = observed_domains(task.dirty)
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        rnd = run_round(spark, wl, task, rec, domains)
        last = time.perf_counter() - t0
        if rnd is None or rnd.first is None:
            break
        record_round(rec, task, rnd)
        rounds.append(rnd)
        now = time.perf_counter()
        if now - start >= seconds or now - run_start + last > RUN_BUDGET_S:
            break
    return rounds


def traced_metrics(spark, wl, task, rec) -> tuple[Round, dict]:
    """One traced round, the driver-side replays, and their metrics.
    There is no untraced round to compare with: with the replays it
    would not fit a run's 180 s on a slow machine."""
    from repro.core.inference import clean_batch
    from repro.core.similarity import similarity_series

    from tracing import Tracer

    tracer = Tracer(spark)
    domains = observed_domains(task.dirty)
    with tracer.installed():
        t0 = time.perf_counter()
        rnd = run_round(spark, wl, task, rec, domains, tracer, cleans=1)
        traced_s = time.perf_counter() - t0
    if rnd is None or rnd.first is None:
        raise RuntimeError("traced round failed: " + "; ".join(rec.problems))
    bc, model = rnd.bclean, rnd.bclean.model

    # Per-cell counters from one driver-side clean_batch pass, which must
    # reproduce what run_inference returned.
    attrs = model.attrs
    with tracer.counting_inference(bc.params.tau_clean):
        t0 = time.perf_counter()
        local = clean_batch(task.dirty[["tid", *attrs]], model, bc.params)
        batch_s = time.perf_counter() - t0
    if not by_tid(local).equals(by_tid(rnd.first)):
        rec.problems.append("driver-side clean_batch differs from "
                            "run_inference")
    c = tracer.counts
    cells = len(local) * len(attrs)
    ref = by_tid(task.dirty[["tid", *attrs]])
    repairs = int((by_tid(local)[attrs] != ref[attrs]).to_numpy().sum())

    # Similarity kernel, single-process, over the structure sample's
    # adjacent pairs (the Spark workers run it out of reach).
    sample = tracer.struct_input.toPandas()
    numeric = set(task.numeric_attrs)
    sim_pairs, sim_s = 0, 0.0
    for pivot in attrs:
        s = sample.sort_values(pivot, kind="stable").reset_index(drop=True)
        cur = s.iloc[1:].reset_index(drop=True)
        prev = s.iloc[:-1].reset_index(drop=True)
        for a in attrs:
            t0 = time.perf_counter()
            similarity_series(cur[a], prev[a], numeric=a in numeric)
            sim_s += time.perf_counter() - t0
            sim_pairs += len(cur)

    t0 = time.perf_counter()
    blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    pickle_s = time.perf_counter() - t0

    dropped, reversed_ = tracer.edge_changes()
    fit_s = rnd.fit_s
    out = {
        "structure.observations_s": tracer.seconds("structure.observations"),
        "structure.observation_rows": c["structure.observation_rows"],
        "structure.spark_jobs": tracer.spark_jobs(
            ("structure.observations",), "fit"),
        "similarity.pairs": sim_pairs,
        "similarity.series_s": sim_s,
        "similarity.us_per_pair": 1e6 * sim_s / max(sim_pairs, 1),
        "glasso.learn_skeleton_s": tracer.seconds("glasso.learn_skeleton"),
        "structure.edge_filter_s": tracer.seconds("structure.edge_filter"),
        "structure.edges_learned": c["structure.edges_learned"],
        "structure.edges_dropped": dropped,
        "structure.edges_reversed": reversed_,
        "compensatory.corr_counts_s":
            tracer.seconds("compensatory.corr_counts"),
        "compensatory.corr_rows": c["compensatory.corr_rows"],
        "compensatory.spark_jobs": tracer.spark_jobs(
            ("compensatory.corr_counts",), "fit"),
        "compensatory.build_index_s":
            tracer.seconds("compensatory.build_index"),
        "cpt.cpt_counts_s": tracer.seconds("cpt.cpt_counts"),
        "cpt.cpt_counts_calls": c["cpt.cpt_counts_calls"],
        "cpt.value_counts_s": tracer.seconds("cpt.value_counts"),
        "cpt.spark_jobs": tracer.spark_jobs(
            ("cpt.cpt_counts", "cpt.value_counts"), "fit"),
        "model.assemble_s": tracer.seconds("model.assemble"),
        "model.pickle_bytes": len(blob),
        "model.pickle_s": pickle_s,
        "network.apply_edits_s": statistics.median(
            tracer.durations("network.apply_edits", "edit") or [0.0]),
        "network.affected_attrs": c["network.affected_attrs"],
        "inference.run_inference_s": statistics.median(
            tracer.durations("inference.run_inference", "clean")),
        "inference.spark_jobs": tracer.spark_jobs(
            ("inference.run_inference",), "clean")
            / len(tracer.durations("inference.run_inference", "clean")),
        "inference.cells": cells,
        "inference.clean_batch_s": batch_s,
        "inference.us_per_cell": 1e6 * batch_s / cells,
        "inference.repairs": repairs,
        "compensatory.corr_lookups": c["compensatory.corr_lookups"],
        "pruning.tuple_filter_calls": c["pruning.tuple_filter_calls"],
        "pruning.cells_skipped": c["pruning.cells_skipped"],
        "pruning.skip_ratio": c["pruning.cells_skipped"] / cells,
        "pruning.domain_prune_calls": c["pruning.domain_prune_calls"],
        "pruning.candidates_kept_mean": c["pruning.candidates_kept"]
            / max(c["pruning.domain_prune_calls"], 1),
        "pruning.candidate_keep_ratio": c["pruning.candidates_kept"]
            / max(c["pruning.candidates_total"], 1),
        "cleaner.fit_self_s": fit_s - tracer.fit_child_seconds(),
        "trace.overhead_s": tracer.overhead_s,
    }
    print(f"# traced round: {traced_s:.2f} s", file=sys.stderr)
    if out["cleaner.fit_self_s"] > 0.1 * fit_s:
        rec.problems.append(
            f"fit self time {out['cleaner.fit_self_s']:.2f} s is over 10% "
            f"of fit_s {fit_s:.2f} s: a layer's work is unaccounted for")
    return rnd, out


def report(values: dict, units: dict, rec: Recorder | None = None) -> dict:
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        n = len(rec.samples.get(name, [])) if rec else 0
        tail = f" (median of {n})" if n > 1 else ""
        print(f"{name} = {value:.6g} {unit}{tail}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="dataset size as a share of load_task's default "
                         "(the self-test uses a small one)")
    args = ap.parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no BClean sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    BENCH_TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_TMP))
    layer: dict = {}
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark(tmp)
        layer["spark.session_start_s"] = time.perf_counter() - t0
        task = set_up(spark, wl, args.seed, args.scale, layer)
        setup_s = time.perf_counter() - run_start
        rec = Recorder(spark.sparkContext)
        print(f"# {args.workload} seed={args.seed} rows={len(task.dirty)} "
              f"attrs={task.dirty.shape[1] - 1}")
        if args.trace:
            rnd, traced = traced_metrics(spark, wl, task, rec)
            record_round(rec, task, rnd)
            # The traced round's own end-to-end numbers, for reference.
            report(end_to_end(rec, task, setup_s), END_TO_END, rec)
            if wl.edit_rounds:
                edit_reference(spark, wl, task, rnd, rec)
            metrics = report({**layer, **traced}, PER_LAYER)
        else:
            rounds = measure(spark, wl, task, rec, args.seconds, run_start)
            if not rounds:
                print("perfbench: no round completed: "
                      + "; ".join(rec.problems), file=sys.stderr)
                return 1
            print(f"# rounds={len(rounds)}")
            metrics = report(end_to_end(rec, task, setup_s), END_TO_END, rec)
        # Carried by the result's failed/attempted, not as a metric: it
        # reads 0 on every healthy run.
        print(f"error_rate = {rec.failed / rec.attempted:.6g} ratio "
              f"({rec.failed} of {rec.attempted} timed ops)")
        correct = rec.failed == 0 and not rec.problems
        for p in rec.problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": rec.attempted,
                          "failed": rec.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
