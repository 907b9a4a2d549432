#!/usr/bin/env python3
"""Benchmark of the fleetcarbon CLI on seeded, generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs are generated from
the seed; the CLI only ever sees the generated files. With --trace 0 the
real subcommands run as child processes, one at a time (a closed loop with
one client), pass after pass while one more pass still fits in S seconds,
and every output is checked against expectations computed from the
generated rows.
With --trace 1 the same passes run in this process, alternately plain and
with spans around fleetcarbon's public functions, for per-layer figures
and the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). The line before it records the inputs
(seed, sha256 of each generated file, package version) and per-subcommand
timings.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_CODE = """\
import sys
from fleetcarbon import config
cfg = config.load_config(sys.argv[1])
config.load_platforms(cfg.platforms)
config.load_inventories(cfg.inventories)
config.load_factors(cfg.factors)
"""


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float  # user + system, this child only
    rss_mb: float  # this child's peak resident set
    problems: tuple[str, ...]


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, resource.struct_rusage]:
    """Run one child to completion; its exit code, wall time and rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    created = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), created, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), created, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


def judge(cmd, code, stdout: str, stderr: str, out: Path) -> tuple[str, ...]:
    """A failed invocation exits non-zero, prints a traceback, or prints
    output the oracle rejects."""
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return (f"{cmd.name}: exit code {code}: {last[0]}",)
    if "Traceback (most recent call last)" in stderr:
        return (f"{cmd.name}: traceback on stderr",)
    try:
        return tuple(f"{cmd.name}: {p}" for p in cmd.check(stdout, out))
    except Exception as exc:  # a check that cannot parse the output is a failed invocation
        return (f"{cmd.name}: output check raised {exc!r}",)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def invoke(cmd, workdir: Path) -> Invocation:
    out = fresh_dir(workdir / "out" / cmd.name)
    stdout, stderr = workdir / "stdout.txt", workdir / "stderr.txt"
    argv = [sys.executable, "-m", "fleetcarbon.cli", *cmd.args, "-o", str(out)]
    code, wall, usage = spawn(argv, stdout, stderr)
    text = stdout.read_text(encoding="utf-8", errors="replace")
    problems = judge(cmd, code, text, stderr.read_text(encoding="utf-8", errors="replace"), out)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, problems)


def probe_setup(case, workdir: Path) -> Invocation:
    """A fresh interpreter imports fleetcarbon and loads the config's inputs."""
    stdout, stderr = workdir / "stdout.txt", workdir / "stderr.txt"
    code, wall, usage = spawn([sys.executable, "-c", SETUP_CODE, str(case.config)], stdout, stderr)
    problems = () if code == 0 else (f"setup: exit code {code}",)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, problems)


def invoke_in_process(cmd, workdir: Path, tracer=None) -> tuple[float, tuple[str, ...]]:
    from fleetcarbon import cli

    out = fresh_dir(workdir / "out" / cmd.name)
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*cmd.args, "-o", str(out)]
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{cmd.name}"):
                    code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a failed invocation, like a child's traceback
            code = 1
            stderr.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return wall, judge(cmd, code, stdout.getvalue(), stderr.getvalue(), out)


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return {"p": 100 * (n - 10) // n, "value": sorted(values)[n - 11]}


def timing(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "max": max(values), "tail": tail(values)}


def repeat_until(deadline: float, step) -> None:
    """Run `step` at least once, and again while one more step of the same
    length would still end before the deadline."""
    while True:
        start = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def measure(case, seconds: float, workdir: Path) -> tuple[dict, dict, list[Invocation]]:
    probe_setup(case, workdir)  # compiles bytecode; not timed
    setups: list[Invocation] = []
    passes: list[list[Invocation]] = []

    def one_pass() -> None:
        # one set-up probe per pass spreads them over the whole run
        setups.append(probe_setup(case, workdir))
        passes.append([invoke(cmd, workdir) for cmd in case.commands])

    repeat_until(time.perf_counter() + seconds, one_pass)

    reading = [
        (sum(c.records for c in case.commands), sum(i.wall_s for i, c in zip(p, case.commands) if c.records))
        for p in passes
    ]
    metrics = {
        "setup_s": statistics.median(s.wall_s for s in setups),
        "pass_s": statistics.median(sum(i.wall_s for i in p) for p in passes),
        "pass_cpu_s": statistics.median(sum(i.cpu_s for i in p) for p in passes),
        "records_per_s": statistics.median(records / wall for records, wall in reading),
        "peak_rss_mb": max(i.rss_mb for p in passes for i in p),
    }
    detail = {"passes": len(passes), "setup": timing([s.wall_s for s in setups])}
    for k, cmd in enumerate(case.commands):
        runs = [p[k] for p in passes]
        detail[cmd.name] = {
            "wall_s": timing([i.wall_s for i in runs]),
            "cpu_s": timing([i.cpu_s for i in runs]),
            "peak_rss_mb": max(i.rss_mb for i in runs),
        }
    return metrics, detail, setups + [i for p in passes for i in p]


def ingest_peak_mb(case) -> float:
    """tracemalloc peak of one ingest of the workload's telemetry."""
    if case.telemetry is None:
        return 0.0
    from fleetcarbon import config, telemetry

    catalog = config.load_platforms(case.catalog)
    gc.collect()
    tracemalloc.start()
    try:
        telemetry.ingest(case.telemetry, catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure_traced(case, seconds: float, workdir: Path) -> tuple[dict, dict, list[Invocation]]:
    from perfbench.spans import Tracer, instrumented, layer_metrics

    plain, traced, layers, tracers = [], [], [], []
    invocations: list[Invocation] = []

    def one_pass(tracer=None) -> float:
        total = 0.0
        for cmd in case.commands:
            wall, problems = invoke_in_process(cmd, workdir, tracer)
            invocations.append(Invocation(wall, 0.0, 0.0, problems))
            total += wall
        return total

    def one_pair() -> None:
        tracer = Tracer(trace=len(tracers))
        if len(tracers) % 2:  # alternate which side runs first
            plain.append(one_pass())
        with instrumented(tracer):
            traced.append(one_pass(tracer))
        if not len(tracers) % 2:
            plain.append(one_pass())
        tracers.append(tracer)
        layers.append(layer_metrics(tracer))

    deadline = time.perf_counter() + seconds
    peak_mb = ingest_peak_mb(case)  # slow under tracemalloc, so inside the measured time
    repeat_until(deadline, one_pair)

    metrics = {name: float(statistics.median(m[name] for m in layers)) for name in layers[0]}
    metrics["telemetry.ingest_peak_mb"] = peak_mb
    metrics["trace.overhead_share"] = (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)
    trace_file = WORK / "traces" / f"{case.workload}-seed{case.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(
        json.dumps([[vars(s) for s in t.spans] for t in tracers]) + "\n", encoding="utf-8"
    )
    detail = {
        "passes": len(traced),
        "traced_pass_s": timing(traced),
        "plain_pass_s": timing(plain),
        "spans_per_pass": len(tracers[0].spans),
        "trace_file": str(trace_file),
    }
    return metrics, detail, invocations


def tally(invocations: list[Invocation]) -> tuple[int, int]:
    """Invocations attempted, and how many of them failed."""
    return len(invocations), sum(bool(i.problems) for i in invocations)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: spawn() then kills and reaps its child, and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fleetcarbon" / "__init__.py").is_file():
        print(f"error: no fleetcarbon package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import fleetcarbon
    from perfbench import inputs
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = fresh_dir(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        case = WORKLOADS[args.workload](args.seed, workdir)
        provenance = {
            "workload": case.workload,
            "seed": case.seed,
            "fleetcarbon_version": fleetcarbon.__version__,
            "inputs": {k: {"bytes": p.stat().st_size, "sha256": inputs.sha256(p)} for k, p in case.inputs.items()},
        }
        if args.trace:
            values, detail, invocations = measure_traced(case, args.seconds, workdir)
            wanted = spec["per_layer"]
        else:
            values, detail, invocations = measure(case, args.seconds, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(invocations)
    detail["failed_share"] = failed / attempted
    detail["problems"] = [p for i in invocations for p in i.problems][:20]
    print(json.dumps({"perfbench": dict(provenance, **detail)}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
