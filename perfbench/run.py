#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the `tin-cli run` job.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload prop_prosper --seed 42 --seconds 15 --trace 0

and, for every workload with its per-layer figures too:

    for w in fifo_bitcoin prop_prosper prop_prosper_sharded prop_prosper_durable; do
      for t in 0 1; do python3 perfbench/run.py --workload $w --seed 42 --seconds 15 --trace $t; done
    done

The script builds `tin-cli` (the repository's own workspace) and the
harness in `perfbench/harness` (a package of its own) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then:

1. Set-up, repeated SETUP_REPEATS times and timed: generate the workload's
   traces from `--seed` with `tin_datasets::generate`, write them with
   `write_csv_file`, and compute each reference report with a bare tracker.
2. `--trace 0`: run the user's job, `tin-cli run trace.csv --policy K
   [flags]`, one process at a time (a closed loop with one client), taking
   the traces in turn, for `--seconds` and until each trace ran MIN_ROUNDS
   jobs. Each job's stdout must equal its trace's reference byte for byte.
   Prints every end-to-end metric.
3. `--trace 1`: alternate untraced jobs with `perfbench-traced` (or
   `perfbench-traced-sharded`), which runs the same job through the public
   functions of each layer crate with a span around every call, at least
   once per trace. Prints every per-layer metric as the median over the
   traced replays, checks that each replay's spans add up to its wall time
   and that each workload's named layer is its largest.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (name -> value and unit, as listed in
BENCHMARK.json). An end-to-end figure is the mean over traces of the
median over that trace's jobs; the sample counts and quartiles go to
stderr, with the machine's CPU count. These figures time whole `tin-cli`
jobs on the machine at hand and are not comparable with the committed
BENCH_PR*.json rows, which time bare-tracker passes on a 1-vCPU machine.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS_MANIFEST = ROOT / "perfbench" / "harness" / "Cargo.toml"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
TOP = 10
JOB_TIMEOUT_S = 60
# Phase-sum check: traced wall minus the sum of the layer spans may be at
# most this share of the traced wall (or UNATTRIBUTED_FLOOR_S, if larger).
UNATTRIBUTED_SHARE = 0.02
UNATTRIBUTED_FLOOR_S = 0.02

# Why each workload was chosen is recorded in BENCHMARK.json. `traces` is
# how many traces a run sets up, from seeds derived from --seed; an
# end-to-end figure averages over them, so that one trace's quirks do not
# move a run's figures (the proportional state differs by a few percent
# between seeds, Bitcoin's fifo job by far less). `interactions` keeps a
# prefix of each generated trace (0 keeps all): proportional tracking grows
# superlinearly, and the first 200k Prosper-medium interactions take about a
# third of the time of all 308k, so a run holds several jobs per trace.
# `intent` names the phase that must be the largest in the traced run;
# `phases` splits the traced job into the disjoint parts it is compared with.
PROSPER = {"dataset": "prosper", "scale": "medium", "interactions": 200_000,
           "traces": 3, "policy": "prop_sparse"}
WORKLOADS = {
    "fifo_bitcoin": {
        "dataset": "bitcoin", "scale": "medium", "interactions": 0, "traces": 1,
        "policy": "fifo", "shards": 1, "checkpoint_every": 0, "intent": "load",
    },
    "prop_prosper": {**PROSPER, "shards": 1, "checkpoint_every": 0, "intent": "kernel"},
    "prop_prosper_sharded": {
        **PROSPER, "shards": 2, "checkpoint_every": 0, "intent": "coordination",
    },
    "prop_prosper_durable": {
        **PROSPER, "shards": 1, "checkpoint_every": 50_000, "intent": "checkpoint",
    },
}


def phases(layers, shards):
    """Disjoint parts of one traced job, in seconds. A sharded job's stream
    is one part, `coordination`: recovery snapshots, barriers, dispatch and
    migration, which has no span of its own yet. It is compared with the
    bare kernel over the same trace, the work the shards would do alone."""
    m = layers.get
    common = {"load": m("datasets.load_s", 0.0), "render": m("cli.render_s", 0.0)}
    if shards > 1:
        return {
            **common,
            "build": m("shard.build_s", 0.0),
            "coordination": m("shard.stream_s", 0.0),
            "kernel": m("core.kernel_s", 0.0),
            "query": m("shard.query_s", 0.0),
            "teardown": m("shard.teardown_s", 0.0),
        }
    return {
        **common,
        "build": m("core.engine_build_s", 0.0),
        "kernel": m("core.kernel_s", 0.0),
        "engine_overhead": m("core.engine_overhead_s", 0.0),
        "checkpoint": m("core.checkpoint_capture_s", 0.0)
        + m("core.checkpoint_encode_s", 0.0)
        + m("core.checkpoint_io_s", 0.0),
        "query": m("core.query_s", 0.0),
        "teardown": m("core.teardown_s", 0.0),
    }


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    for args in (["-p", "tin-cli"], ["--manifest-path", str(HARNESS_MANIFEST)]):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=ROOT, stdout=sys.stderr, check=True,
        )


def run_process(cmd, stdout_path):
    """Run `cmd` to completion; return (exit status, wall s, cpu s, peak RSS bytes)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.DEVNULL)
        # Kill a hung job so the run still ends in bounded time.
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024


class Trace:
    """One generated trace and the report a correct job prints for it."""

    def __init__(self, work, info):
        self.path = work / "trace.csv"
        self.reference = work / "reference.txt"
        self.expected = self.reference.read_bytes()
        self.interactions = info["interactions"]
        self.bytes = info["trace_bytes"]


class Run:
    def __init__(self, workload, work):
        self.w = WORKLOADS[workload]
        self.work = work
        self.bin = Path(os.environ["CARGO_TARGET_DIR"]) / "release"
        self.traces = []
        self.jobs = 0
        self.checkpoint_dirs = 0

    def setup(self, seed):
        """Set up the workload's traces from `seed`; return the set-up seconds
        of the whole set, one value per repetition."""
        count = self.w["traces"]
        totals = [0.0] * SETUP_REPEATS
        for i in range(count):
            work = self.work / f"trace-{i}"
            work.mkdir()
            cmd = [
                str(self.bin / "perfbench-setup"),
                "--dataset", self.w["dataset"], "--scale", self.w["scale"],
                "--seed", str((seed * count + i) % 2**64),
                "--interactions", str(self.w["interactions"]),
                "--policy", self.w["policy"], "--top", str(TOP),
                "--dir", str(work), "--repeat", str(SETUP_REPEATS),
            ]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120)
            info = json.loads(out.stdout)
            totals = [a + b for a, b in zip(totals, info["setup_s"])]
            self.traces.append(Trace(work, info))
        return totals

    def job(self, trace):
        """One untraced `tin-cli run`; returns (ok, wall, cpu, rss)."""
        self.jobs += 1
        cmd = [str(self.bin / "tin-cli"), "run", str(trace.path),
               "--policy", self.w["policy"], "--top", str(TOP)]
        if self.w["shards"] > 1:
            cmd += ["--shards", str(self.w["shards"])]
        ckpt = self.fresh_checkpoint_dir()
        if ckpt:
            cmd += ["--checkpoint-dir", str(ckpt),
                    "--checkpoint-every", str(self.w["checkpoint_every"])]
        stdout_path = self.work / "stdout.txt"
        try:
            code, wall, cpu, rss = run_process(cmd, stdout_path)
        finally:
            if ckpt:
                shutil.rmtree(ckpt, ignore_errors=True)
        matches = stdout_path.read_bytes() == trace.expected
        if code != 0 or not matches:
            log(f"job {self.jobs} failed: exit {code}, output matches reference: {matches}")
        return code == 0 and matches, wall, cpu, rss

    def traced(self, trace):
        """One traced replay of the job; returns its per-layer metrics."""
        ckpt = self.fresh_checkpoint_dir() or self.work / "unused-checkpoints"
        cmd = [
            str(self.bin / ("perfbench-traced-sharded" if self.w["shards"] > 1
                            else "perfbench-traced")),
            "--trace", str(trace.path),
            "--reference", str(trace.reference), "--policy", self.w["policy"],
            "--shards", str(self.w["shards"]), "--top", str(TOP),
            "--checkpoint-dir", str(ckpt),
            "--checkpoint-every", str(self.w["checkpoint_every"]),
        ]
        stdout_path = self.work / "traced.json"
        try:
            code, _, _, _ = run_process(cmd, stdout_path)
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"traced run exited with {code}")
        return json.loads(stdout_path.read_text().strip().splitlines()[-1])

    def fresh_checkpoint_dir(self):
        """A new, empty checkpoint directory per durable job (None otherwise)."""
        if not self.w["checkpoint_every"]:
            return None
        self.checkpoint_dirs += 1
        return self.work / f"checkpoints-{self.checkpoint_dirs}"


def describe(name, values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def measure_end_to_end(run, seconds, setup_seconds):
    """Jobs on the traces in turn until `seconds` pass and every trace ran
    MIN_ROUNDS times. Each timing is the mean over traces of the median over
    that trace's jobs: the median drops jobs slowed by other tenants of the
    machine, the mean over traces keeps one trace's quirks from moving the
    figure."""
    jobs = [[] for _ in run.traces]
    start = time.perf_counter()
    turn = 0
    while len(jobs[-1]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        jobs[turn].append(run.job(run.traces[turn]))
        turn = (turn + 1) % len(run.traces)
    medians = [[statistics.median(r[i] for r in results) for i in (1, 2, 3)]
               for results in jobs]
    for trace, results in zip(run.traces, jobs):
        log(f"{trace.path.parent.name}: " + describe("wall_s", [r[1] for r in results], "s"))
    log(describe("setup_s", setup_seconds, "s"))
    oks = [r[0] for results in jobs for r in results]
    metrics = {
        "wall_s": statistics.fmean(m[0] for m in medians),
        "throughput_ips": sum(t.interactions for t in run.traces) / sum(m[0] for m in medians),
        "cpu_s": statistics.fmean(m[1] for m in medians),
        "peak_mem_bytes": statistics.fmean(m[2] for m in medians),
        "success_ratio": sum(oks) / len(oks),
        "setup_s": statistics.median(setup_seconds),
    }
    return metrics, all(oks), len(oks), len(oks) - sum(oks)


def measure_layers(run, seconds):
    """Rounds of one untraced job and one traced replay per trace; each
    per-layer metric is the median over the traced replays."""
    oks, traced, overheads = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for trace in run.traces:
            ok, wall, _, _ = run.job(trace)
            oks.append(ok)
            traced.append(run.traced(trace))
            overheads.append(traced[-1]["bench.traced_wall_s"] / wall)
    names = {k for t in traced for k, v in t.items() if not isinstance(v, bool)}
    layers = {k: statistics.median(t.get(k, 0.0) for t in traced) for k in names}
    failed = oks.count(False) + [t["output_matches"] for t in traced].count(False)
    attempted = len(oks) + len(traced)
    layers["bench.trace_overhead_ratio"] = statistics.median(overheads)
    layers["bench.error_ratio"] = failed / attempted

    correct = failed == 0
    if not all(t["output_matches"] for t in traced):
        log("traced run printed a report that differs from the reference")
    for t in traced:
        tolerance = max(UNATTRIBUTED_SHARE * t["bench.traced_wall_s"], UNATTRIBUTED_FLOOR_S)
        if abs(t["bench.unattributed_s"]) > tolerance:
            log(f"phase-sum check failed: {t['bench.unattributed_s']:.4f} s of traced wall "
                f"{t['bench.traced_wall_s']:.4f} s is in no layer span "
                f"(tolerance {tolerance:.4f} s)")
            correct = False
    parts = phases(layers, run.w["shards"])
    log(f"{len(traced)} traced replays; median phases: "
        + ", ".join(f"{k} {v:.4f} s" for k, v in parts.items()))
    if max(parts, key=parts.get) != run.w["intent"]:
        log(f"workload-intent check failed: {run.w['intent']} is not the largest phase")
        correct = False
    return layers, correct, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        log(f"{ROOT} is not a source checkout of the workspace; nothing to benchmark")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log(f"{os.cpu_count()} CPUs online")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = str(target if target.is_absolute() else ROOT / target)
    build()

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, work)
        setup_seconds = run.setup(args.seed)
        for trace in run.traces:
            log(f"{trace.path.parent.name}: {trace.interactions} interactions, "
                f"{trace.bytes} bytes")
        if args.trace:
            values, correct, attempted, failed = measure_layers(run, args.seconds)
            wanted = spec["per_layer"]
        else:
            values, correct, attempted, failed = measure_end_to_end(
                run, args.seconds, setup_seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Layers a workload does not exercise (shards on a sequential run,
    # checkpoints without --checkpoint-dir) read 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
