"""strainkp benchmark: closed-loop client driving fresh worker processes.

Usage, from the root of a checkout:

  python3 bench/run.py --workload bulk_sweep|qw_sweep|point_queries \\
      --seed N --seconds S --trace 0|1
  python3 bench/run.py --record-reference   # rewrite bench/reference.json

One client sends one request at a time to a worker process (``worker.py``)
and waits for its reply.  The sweep workloads start a fresh worker for every
pass, as a user starting ``strainkp`` would; point_queries keeps one worker
for the whole run.  Passes repeat until ``--seconds`` have elapsed.  Every
output is checked (``checks.py``).  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` passes alternate between an
untraced and a traced worker and the last line holds the per-layer metrics.
The line before it records the environment.  A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
MIN_SETUP_SAMPLES = 5
# The machine's speed drifts by up to 1.5x in episodes of seconds, so a
# timed call shorter than PROBE_MAX_SPAN_S is reported scaled by
# PROBE_NOMINAL_S / (mean of the speed probes, worker.calibrate, taken just
# before and after it).  Longer calls span several episodes and are reported
# as measured.  PROBE_NOMINAL_S is the median probe time on the 2-core
# machine the bounds were set on.
PROBE_NOMINAL_S = 1.1e-3
PROBE_MAX_SPAN_S = 5.0
RUN_DEADLINE_S = 170.0     # the whole run, set-up samples included
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no sources, dead worker, timeout)."""


class Worker:
    """One worker process speaking JSON lines over its stdin/stdout."""

    def __init__(self, ctx: "Context", traced: bool):
        self.ctx = ctx
        self.spans = ctx.work / f"spans-{len(ctx.workers)}.json"
        self.traced = traced
        ctx.workers.append(self)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"),
             "--trace", "1" if traced else "0", "--spans", str(self.spans)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=ctx.env)
        self.hello = self._receive()
        ctx.probes += self.hello["probes"]
        self.last_probe = self.hello["probes"][-1]
        scale = _scale(self.hello["setup_s"], *self.hello["probes"])
        ctx.setup_s.append(self.hello["setup_s"] * scale)
        ctx.import_s.append(self.hello["import_s"] * scale)

    def _receive(self) -> dict:
        remaining = self.ctx.deadline - perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(remaining, 0.0))
        if not ready:
            raise BenchError("worker did not answer before the deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()
        return self._receive()

    def timed(self, obj: dict) -> dict:
        """Send a timed request; the reply gains ``scales``, the factor for
        each timed call (a CLI call, or a whole query block)."""
        reply = self.request(obj)
        probes = [self.last_probe] + reply["probes"]
        self.last_probe = probes[-1]
        self.ctx.probes += reply["probes"]
        spans = reply["latencies"] if obj["op"] == "cli" else [reply["wall"]]
        reply["scales"] = [_scale(t, a, b) for t, a, b in
                           zip(spans, probes, probes[1:])]
        return reply

    def close(self) -> dict:
        """Ask the worker to exit (a traced one writes its spans first);
        returns its reply, which holds its peak RSS."""
        bye = self.request({"op": "exit"})
        self.proc.wait(timeout=30)
        return bye

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def _scale(seconds: float, probe_before: float, probe_after: float) -> float:
    if seconds > PROBE_MAX_SPAN_S:
        return 1.0
    return 2.0 * PROBE_NOMINAL_S / (probe_before + probe_after)


class Context:
    """State of one run: settings, workers started, samples collected."""

    def __init__(self, args, reference: dict):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.reference = reference
        self.start = perf_counter()            # of the timed loop
        self.deadline = self.start + RUN_DEADLINE_S
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
        self.workers: list[Worker] = []
        self.setup_s: list[float] = []         # timings: scaled seconds
        self.import_s: list[float] = []
        self.walls = {False: [], True: []}     # traced? -> pass walls
        self.raw_walls: list[float] = []       # untraced, unscaled
        self.latencies: list[float] = []       # untraced queries (a sweep
                                               # pass or a library call)
        self.probes: list[float] = []
        self.peak_rss_mb: list[float] = []     # workers that ran passes
        self.output_bytes: list[int] = []
        self.dumps: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, op_failures: dict) -> None:
        """Count operations; op_failures maps op label -> messages."""
        self.attempted += len(op_failures)
        for label, msgs in op_failures.items():
            if msgs:
                self.failed += 1
                self.failures += [f"{label}: {m}" for m in msgs]

    def done(self) -> bool:
        """True once another pass would end after ``seconds`` (passes take
        about as long as the mean so far), and every kind of pass (untraced,
        and traced when tracing) has run at least once."""
        now = perf_counter()
        passes = len(self.walls[False]) + len(self.walls[True])
        if passes == 0:
            return False
        elapsed = now - self.start
        full = elapsed + elapsed / passes > self.seconds
        both = all(self.walls[t] for t in ((False, True) if self.trace
                                           else (False,)))
        return full and both

    def finish_worker(self, worker: Worker, ran_passes: bool) -> None:
        bye = worker.close()
        if ran_passes and not worker.traced:
            self.peak_rss_mb.append(bye["peak_rss_mb"])
        if worker.traced:
            self.dumps.append(json.loads(worker.spans.read_text()))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ sweeps

def sweep_pass(ctx: Context, inputs: dict, config: Path, out: Path,
               traced: bool = False) -> dict:
    """One sweep pass in a fresh worker; returns the worker's reply."""
    worker = Worker(ctx, traced)
    try:
        reply = worker.timed({"op": "cli", "argvs": [
            [cmd, "--config", str(config), "--out", str(out), "--threads",
             "1"] for cmd in inputs["commands"]]})
        ctx.finish_worker(worker, ran_passes=True)
    finally:
        worker.kill()
    return reply


def _check_outputs(ctx, inputs, out: Path, ref: dict | None) -> dict:
    """Output checks of one sweep pass: command -> failure messages."""
    commands = inputs["commands"]
    per_op = {cmd: [] for cmd in commands}
    if ctx.workload == "bulk_sweep":
        found = checks.check_bulk_pass(out, inputs)
    else:
        found = checks.check_qw_pass(out, inputs,
                                     ctx.reference["qw_drift_ev"])
    for op, msg in found:
        per_op[commands[op]].append(msg)
    if ref is not None:
        for name, op in checks.sweep_files(ctx.workload, inputs).items():
            if (out / name).is_file():
                per_op[commands[op]] += checks.compare_summary(
                    name, checks.summarize(out / name), ref["files"][name])
    return per_op


def _digests(out: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def check_sweep_passes(ctx, inputs, passes, ref: dict | None) -> None:
    """Check every pass.  All passes of a run have the same inputs and the
    CLI's outputs are byte-deterministic, so a command whose files are
    byte-identical to the first pass's gets the first pass's verdict; a
    pass with any differing file is checked in full, and the commands that
    wrote differing files fail."""
    files = checks.sweep_files(ctx.workload, inputs)
    commands = inputs["commands"]
    first_digests = first_verdict = None
    for out, reply in passes:
        ctx.output_bytes.append(sum(f.stat().st_size
                                    for f in out.iterdir()))
        digests = _digests(out)
        if first_verdict is not None and digests == first_digests:
            per_op = first_verdict
        else:
            per_op = _check_outputs(ctx, inputs, out, ref)
            if first_verdict is None:
                first_digests, first_verdict = digests, per_op
            else:
                for name, op in files.items():
                    if digests.get(name) != first_digests.get(name):
                        per_op[commands[op]].append(
                            f"{name} differs from the first pass")
        per_op = {cmd: list(msgs) for cmd, msgs in per_op.items()}
        for cmd, code in zip(commands, reply["codes"]):
            if code != 0:
                per_op[cmd].append(f"exit code {code}")
        ctx.record(per_op)
        shutil.rmtree(out)


def run_sweep(ctx: Context, inputs: dict, ref: dict | None) -> None:
    config = ctx.work / "run.ini"
    config.write_text(inputs["config"], encoding="utf-8")
    passes = []
    ctx.start = perf_counter()
    while not ctx.done():
        traced = ctx.trace and len(passes) % 2 == 1
        out = ctx.work / f"pass-{len(passes)}"
        reply = sweep_pass(ctx, inputs, config, out, traced)
        wall = sum(t * s for t, s in zip(reply["latencies"],
                                         reply["scales"]))
        ctx.walls[traced].append(wall)
        if not traced:
            ctx.raw_walls.append(reply["wall"])
            ctx.latencies.append(wall)
        passes.append((out, reply))
    # checked after the timed loop, so checking takes no measuring time
    check_sweep_passes(ctx, inputs, passes, ref)


def run_queries(ctx: Context, ref: dict | None) -> None:
    workers = [Worker(ctx, False)] + ([Worker(ctx, True)] if ctx.trace
                                      else [])
    try:
        block = 0
        ctx.start = perf_counter()
        while not ctx.done():
            worker = workers[block % len(workers)]
            queries = workloads.query_block(ctx.seed, block)
            reply = worker.timed({"op": "queries", "queries": queries})
            scale = reply["scales"][0]
            ctx.walls[worker.traced].append(reply["wall"] * scale)
            if not worker.traced:
                ctx.raw_walls.append(reply["wall"])
                ctx.latencies += [t * scale for t in reply["latencies"]]
            per_op = {}
            for i, (q, result, error) in enumerate(zip(
                    queries, reply["results"], reply["errors"])):
                msgs = [error] if error else checks.check_query(q, result)
                if ref is not None and not msgs and block < len(ref["blocks"]):
                    msgs = checks.compare_values(
                        f"{q['kind']}", checks.comparable(q, result),
                        ref["blocks"][block][i])
                per_op[f"block {block} query {i} ({q['kind']})"] = msgs
            ctx.record(per_op)
            block += 1
        for worker in workers:
            ctx.finish_worker(worker, ran_passes=True)
    finally:
        for worker in workers:
            worker.kill()


def top_up_setup_samples(ctx: Context) -> None:
    """Start set-up-only workers until the run has MIN_SETUP_SAMPLES."""
    while len(ctx.setup_s) < MIN_SETUP_SAMPLES:
        worker = Worker(ctx, False)
        try:
            ctx.finish_worker(worker, ran_passes=False)
        finally:
            worker.kill()


# ----------------------------------------------------------------- metrics

def end_to_end(ctx: Context, work: dict) -> dict:
    wall = statistics.median(ctx.walls[False])
    return {
        "setup_s": statistics.median(ctx.setup_s),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(ctx.peak_rss_mb),
        "bulk_points_per_s": work["bulk_points"] / wall,
        "queries_per_s": work["queries"] / wall,
        "query_p50_ms": 1e3 * percentile(ctx.latencies, 0.50),
        "query_p99_ms": 1e3 * percentile(ctx.latencies, 0.99),
    }


def per_layer(ctx: Context) -> dict:
    out = tracing.aggregate(ctx.dumps, len(ctx.walls[True]))
    out["cli.output_bytes"] = statistics.median(ctx.output_bytes) \
        if ctx.output_bytes else 0
    out["strainkp.import_s"] = statistics.median(ctx.import_s)
    out["trace.overhead_s"] = statistics.median(ctx.walls[True]) \
        - statistics.median(ctx.walls[False])
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "strainkp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(ctx: Context) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    worker_env = ctx.workers[0].hello["env"] if ctx.workers else {}
    return {"workload": ctx.workload, "seed": ctx.seed,
            "seconds": ctx.seconds, "trace": int(ctx.trace),
            "nproc": os.cpu_count(), "cpu_affinity": affinity,
            "blas_threads_pinned": BLAS_THREADS, **worker_env,
            "git_commit": _git_commit(), "source_sha256": _source_digest(),
            "sizes": workloads.sizes()[ctx.workload],
            "passes": {"untraced": len(ctx.walls[False]),
                       "traced": len(ctx.walls[True])},
            "workers": len(ctx.workers),
            "probe_nominal_s": PROBE_NOMINAL_S,
            "probe_median_s": statistics.median(ctx.probes),
            "raw_wall_s": statistics.median(ctx.raw_walls)
            if ctx.raw_walls else None,
            "setup_samples": len(ctx.setup_s),
            "latency_samples": len(ctx.latencies)}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# -------------------------------------------------------------------- main

def run(args) -> int:
    if not (SRC / "strainkp" / "__init__.py").is_file():
        raise BenchError(f"no strainkp sources under {SRC}")
    units = declared_metrics(bool(args.trace))
    generated = workloads.generate(args.workload, args.seed)
    deterministic = generated == workloads.generate(args.workload, args.seed)
    inputs = generated if args.workload != "point_queries" else None
    work = workloads.QUERY_WORK if inputs is None else inputs["work"]
    ctx = Context(args, _reference())
    ref = ctx.reference[args.workload] \
        if args.seed == workloads.DEFAULT_SEED else None
    ctx.work.mkdir(parents=True, exist_ok=True)
    ctx.record({"input generation": [] if deterministic else [
        "the same seed generated different inputs"]})
    try:
        if args.workload == "point_queries":
            run_queries(ctx, ref)
        else:
            run_sweep(ctx, inputs, ref)
        top_up_setup_samples(ctx)
    finally:
        for worker in ctx.workers:
            worker.kill()
        shutil.rmtree(ctx.work, ignore_errors=True)

    values = per_layer(ctx) if args.trace else end_to_end(ctx, work)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are "
                         f"not both computed and declared in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    print(f"{args.workload} seed {args.seed}: {ctx.attempted} operations, "
          f"{ctx.failed} failed (failed_frac "
          f"{ctx.failed / ctx.attempted:.3g})", file=sys.stderr)
    if not args.trace:
        print(f"  qw_solves_per_s = "
              f"{work['qw_solves'] / values['wall_s']:.6g} 1/s "
              f"(not a benchmark metric)", file=sys.stderr)
    for msg in ctx.failures[:20]:
        print(f"  FAIL {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"env": environment(ctx)}))
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


def record_reference() -> int:
    """Run one pass of every workload at the default seed and store the
    summaries that later runs at that seed are compared against."""
    sys.path.insert(0, str(SRC))
    import strainkp
    from strainkp.elasticity import StrainState

    table = strainkp.default_parameter_table()
    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed, "rtol": checks.REF_RTOL, "atol": checks.REF_ATOL,
           "qw_drift_ev": {}}
    for t in workloads.QW_THICKNESSES_NM:
        energies = [strainkp.solve_qw(strainkp.QwGeometry(
            t, grid_points=n), StrainState(), table, 2)[0].energy
            for n in (workloads.QW_GRID_POINTS,
                      2 * workloads.QW_GRID_POINTS + 1)]
        ref["qw_drift_ev"][f"{t:g}"] = abs(energies[0] - energies[1])

    args = argparse.Namespace(seed=seed, seconds=0, trace=0, workload=None)
    for name in ("bulk_sweep", "qw_sweep"):
        args.workload = name
        ctx = Context(args, ref)
        ctx.work.mkdir(parents=True, exist_ok=True)
        inputs = workloads.generate(name, seed)
        config = ctx.work / "run.ini"
        config.write_text(inputs["config"], encoding="utf-8")
        out = ctx.work / "pass"
        reply = sweep_pass(ctx, inputs, config, out)
        if any(reply["codes"]):
            raise BenchError(f"{name}: exit codes {reply['codes']}")
        ref[name] = {"files": {f: checks.summarize(out / f)
                               for f in checks.sweep_files(name, inputs)}}
        shutil.rmtree(ctx.work)

    args.workload = "point_queries"
    ctx = Context(args, ref)
    worker = Worker(ctx, False)
    blocks = []
    try:
        for b in range(2):
            queries = workloads.query_block(seed, b)
            reply = worker.request({"op": "queries", "queries": queries})
            if any(reply["errors"]):
                raise BenchError(f"point query errors: {reply['errors']}")
            blocks.append([checks.comparable(q, r)
                           for q, r in zip(queries, reply["results"])])
        worker.close()
    finally:
        worker.kill()
    ref["point_queries"] = {"blocks": blocks}
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
