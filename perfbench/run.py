#!/usr/bin/env python3
"""Benchmark of the condorcet command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads and their oracles are in ``perfbench/workloads.py``,
the metrics and why each exists in ``perfbench/METRICS.md``.

The parent process runs no op itself.  It starts one runner process and
waits for it.  The runner imports the package and builds its op list from
the workload seed; that is the set-up.  It then runs passes over the op list
until ``--seconds`` is used up (at least one pass).  Each op of a pass runs
in a child forked from the runner, which calls
``condorcet.cli.run(argv + ["--format", "json"])`` once, times it and
reports back.  So every op starts cold, as a command-line call does: no
``lru_cache`` or cached property carries over from one op to the next, and
the import is not paid again.  Just before its op the child times a fixed
calibration, by which ``wall_ref_s`` scales op times to the host's
reference speed.  Ops run one after another (closed loop, one
client); the runner parses each op's JSON and checks it against the op's
oracle.  Extra processes that only import and build the op list, spread
over the run, give more samples of the set-up time; each of them, and the
runner, times the calibration right after set-up, by which ``setup_s`` is
scaled to the host's reference speed.

With ``--trace 1`` untraced and traced passes alternate; in a traced pass
each op's child wraps the layer entry points (``perfbench/tracing.py``)
and yields the spans the per-layer metrics come from, and the outputs must
equal the untraced pass's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (seed, versions, CPU count, cache sizes), which is also
written with every pass, op output and the first traced pass's spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# Processes per run that only import the package and build the op list.
SETUP_PROBES = 10
# Seconds ``calibrate`` takes on an idle core of the host this benchmark was
# written on (a 2.0 GHz Xeon); ``wall_ref_s`` and ``setup_s`` are in seconds
# at that speed.
CALIBRATION_REF_S = 0.02
# Every run, probes and passes together, must end within this many seconds.
RUN_DEADLINE_S = 170.0


def _clock() -> float:
    """A clock shared by all processes on the host (Linux CLOCK_MONOTONIC),
    so a child can time itself from the moment its parent started it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny op sizes, for the self-test")
    parser.add_argument("--role", choices=("run", "probe", "runner"), default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class RunFailed(RuntimeError):
    pass


# --------------------------------------------------------------------------
# One op, in a child forked from the runner.


def _run_op(cli, op, tracer):
    argv = list(op.argv) + ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.run(argv)
            else:
                code = tracer.call("cli.run", cli.run, argv, label=op.label)
    except Exception:  # a crash is a failed op, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    try:
        results = json.loads(out.getvalue())["results"] if code is not None else None
    except (ValueError, KeyError):
        results = None
    return code, results, err.getvalue(), seconds


def calibrate() -> float:
    """Seconds a fixed piece of interpreter and numpy work takes now.

    Other tenants of a shared host slow its cores by up to half, for
    seconds to minutes at a time.  Each op process runs this just before
    its op, and each set-up process just after its set-up, so that their
    times can be scaled to the host's reference speed (see ``wall_ref_s``
    and ``setup_ref_s``).  The arrays are small, so that this adds
    little to the peak memory of the op's process.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    rng = np.random.default_rng(1)
    rows = np.tile(np.arange(64, dtype=np.int16), (1024, 1))
    for _ in range(4):
        (rng.permuted(rows, axis=1)[:, :32] < rows[:, 32:]).sum(axis=0)
    return time.perf_counter() - start


def _op_child(cli, op, traced: bool) -> dict:
    calibration_s = calibrate()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code, results, stderr, seconds = _run_op(cli, op, tracer)
    return {
        "calibration_s": calibration_s,
        "exit": code,
        "results": results,
        "stderr": stderr,
        "seconds": seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
        "absent": tracer.absent if tracer is not None else [],
    }


def _fork_op(cli, op, traced: bool) -> dict:
    """Run one op in a forked child and return what it reports.

    The runner runs no op and starts no thread of its own (numpy's BLAS
    library may hold idle worker threads, which it sets up again after a
    fork), so the child is a plain copy of it: the package imported,
    nothing run yet.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(_op_child(cli, op, traced)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:  # the child must reach os._exit whatever happens
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RunFailed(f"the process of op {op.label} ended with status {status}")
    return json.loads(payload)


# --------------------------------------------------------------------------
# The runner: set-up, then passes over the op list in forked children.


def _spawn_probe(args: argparse.Namespace, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", "probe", "--started", repr(_clock()),
    ] + (["--toy"] if args.toy else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("run deadline reached")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed("a set-up probe exceeded the run deadline") from exc
    if done.returncode != 0:
        raise RunFailed(f"a set-up probe exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_pass(cli, condorcet, workloads, ops, args, traced: bool, pinned: dict) -> dict:
    rows, results_by_label, traces = [], {}, []
    for op in ops:
        row = _fork_op(cli, op, traced)
        results_by_label[op.label] = row["results"]
        error = workloads.judge(
            op, row["exit"], row["results"], results_by_label, args.seed,
            condorcet.STREAM_VERSION, pinned,
        )
        traces.append(row.pop("trace"))
        absent = row.pop("absent")
        row.update({
            "label": op.label,
            "argv": list(op.argv),
            "error": error,
            "known_failure": workloads.KNOWN_FAILURES.get(op.label) if error else None,
        })
        rows.append(row)
    record = {"role": "traced" if traced else "plain", "ops": rows}
    if traced:
        import tracing

        tracer = tracing.merge(traces, absent)
        metrics = tracing.layer_metrics(tracer, workloads.VERIFY_SUITES)
        record["layer_metrics"] = {name: value for name, (value, unit) in metrics.items()}
        record["layer_units"] = {name: unit for name, (value, unit) in metrics.items()}
        record["absent"] = absent
        record["trace"] = tracer.dump()
    return record


def run_process(args: argparse.Namespace) -> int:
    """Body of the runner and of the set-up probes."""
    if not (SRC / "condorcet" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import condorcet
    from condorcet import cli

    import workloads

    ops = workloads.build_ops(args.workload, args.seed, args.toy)
    setup_s = _clock() - args.started
    if Path(condorcet.__file__).resolve().parent != SRC / "condorcet":
        print(f"condorcet imported from {condorcet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    calibrate()  # numpy's first-use costs, paid once here and not in each op process
    setup = {"setup_s": setup_s, "calibration_s": calibrate()}
    if args.role == "probe":
        print(json.dumps(setup))
        return 0

    pinned = workloads.load_pinned()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    probes: List[dict] = []
    passes: List[dict] = []

    def probe_until(count: float) -> None:
        while len(probes) < count:
            probes.append(_spawn_probe(args, deadline))

    try:
        while True:
            # Probes are spread over the run in proportion to elapsed time:
            # the host's speed drifts over seconds, and a burst of probes
            # would sample one moment of it.
            probe_until(SETUP_PROBES * (time.monotonic() - start) / args.seconds)
            cycle_start = time.monotonic()
            for traced in ((False, True) if args.trace else (False,)):
                passes.append(_run_pass(cli, condorcet, workloads, ops, args, traced, pinned))
            cycle = time.monotonic() - cycle_start
            if time.monotonic() - start + cycle > args.seconds:
                break
        probe_until(SETUP_PROBES)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    # Only the first traced pass keeps its spans for the written record.
    for record in [r for r in passes if r["role"] == "traced"][1:]:
        del record["trace"]
    print(json.dumps({
        "setups": [setup] + probes,
        "passes": passes,
        "package_version": condorcet.__version__,
        "numpy_version": numpy.__version__,
        "stream_version": condorcet.STREAM_VERSION,
    }))
    return 0


# --------------------------------------------------------------------------
# The parent: starts the runner, checks and aggregates its records.


def _start_runner(args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", "runner", "--started", repr(_clock()),
    ] + (["--toy"] if args.toy else [])
    # A process group of its own, so that a runner past the deadline can be
    # stopped together with the op process it is waiting for.
    runner = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = runner.communicate(timeout=RUN_DEADLINE_S + 5.0)
    except subprocess.TimeoutExpired as exc:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.communicate()
        raise RunFailed("the runner exceeded the run deadline") from exc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(runner.pid, signal.SIGKILL)
    if runner.returncode != 0:
        raise RunFailed(f"the runner exited {runner.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes[f"L{level}{ {'Data': 'd', 'Instruction': 'i'}.get(kind, '') }"] = size
    return sizes


def _outputs(record: dict) -> list:
    return [(row["label"], row["exit"], row["results"]) for row in record["ops"]]


def wall_ref_s(passes: List[dict], role: str) -> float:
    """Time of the op list at the host's reference speed.

    Each op's time is scaled by ``CALIBRATION_REF_S`` over the calibration
    time around the op: the mean of the calibration its own process ran just
    before it and the one the next op's process ran just after it ended (the
    run's last op has only the first).  Other tenants slow an op and the
    calibrations around it alike, so the host's speed cancels out.  The
    result is the sum over ops of each op's median scaled time over the
    passes of ``role``.
    """
    rows = [(record["role"], row) for record in passes for row in record["ops"]]
    scaled: Dict[str, List[float]] = {}
    for index, (row_role, row) in enumerate(rows):
        if row_role != role:
            continue
        around = [row["calibration_s"]]
        if index + 1 < len(rows):
            around.append(rows[index + 1][1]["calibration_s"])
        speed = CALIBRATION_REF_S / statistics.fmean(around)
        scaled.setdefault(row["label"], []).append(row["seconds"] * speed)
    return sum(statistics.median(values) for values in scaled.values())


def setup_ref_s(setups: List[dict]) -> float:
    """Set-up time at the host's reference speed: the median over the
    runner and the probes of each one's set-up time times
    ``CALIBRATION_REF_S`` over the calibration it ran just after set-up."""
    return statistics.median(
        s["setup_s"] * CALIBRATION_REF_S / s["calibration_s"] for s in setups
    )


def wall_s(passes: List[dict]) -> float:
    """Time of the op list as measured: the sum over ops of each op's
    median time over ``passes``."""
    seconds: Dict[str, List[float]] = {}
    for record in passes:
        for row in record["ops"]:
            seconds.setdefault(row["label"], []).append(row["seconds"])
    return sum(statistics.median(values) for values in seconds.values())


def orchestrate(args: argparse.Namespace) -> int:
    if not (SRC / "condorcet" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    import workloads

    workloads.build_ops(args.workload, args.seed, args.toy)  # rejects unknown workloads
    try:
        run = _start_runner(args)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    passes = run["passes"]

    problems = []
    reference = _outputs(passes[0])
    for record in passes[1:]:
        if _outputs(record) != reference:
            problems.append(f"a {record['role']} pass's outputs differ from the first pass's")
    attempted = failed = 0
    for record in passes:
        for row in record["ops"]:
            attempted += 1
            if row["error"] is not None:
                failed += 1
                if row["known_failure"] is None:
                    problems.append(f"{row['label']} ({record['role']}): {row['error']}")

    plain = [r for r in passes if r["role"] == "plain"]
    traced = [r for r in passes if r["role"] == "traced"]
    metrics = {}
    if args.trace:
        for name, unit in traced[0]["layer_units"].items():
            values = [r["layer_metrics"][name] for r in traced]
            if unit == "count" and len(set(values)) > 1:
                problems.append(f"count metric {name} differs between traced passes: {values}")
            value = values[0] if unit == "count" else statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
        overhead = wall_ref_s(passes, "traced") / wall_ref_s(passes, "plain") - 1.0
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        if traced[0]["absent"]:
            print(f"absent layers: {', '.join(traced[0]['absent'])}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_ref_s(run["setups"]), "unit": "s"},
            "wall_ref_s": {"value": wall_ref_s(passes, "plain"), "unit": "s"},
            "peak_rss_mb": {
                "value": max(row["peak_rss_kb"] for r in plain for row in r["ops"]) / 1024.0,
                "unit": "MB",
            },
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "passes": len(passes),
        "setup_s_measured": statistics.median(s["setup_s"] for s in run["setups"]),
        "wall_s_measured": wall_s(plain),
        "calibration_s": statistics.median(
            row["calibration_s"] for record in passes for row in record["ops"]
        ),
        "package_version": run["package_version"],
        "stream_version": run["stream_version"],
        "python_version": platform.python_version(),
        "numpy_version": run["numpy_version"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_cache": _cache_sizes(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"env": env, "metrics": metrics, "problems": problems,
             "setups": run["setups"], "passes": passes},
            fh, indent=1,
        )
    print(json.dumps({"run": env, "record": str(out_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.role == "run":
        return orchestrate(args)
    return run_process(args)


if __name__ == "__main__":
    sys.exit(main())
