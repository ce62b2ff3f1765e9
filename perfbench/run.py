"""Benchmark of the pcg engine: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository; it imports pcg from
the checkout's ``src`` and nothing else. A run sets the workload up, repeats
full passes of it (at least three) until the next one would end after
``--seconds``, checks every call's output after each pass, and prints a table
of metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are each call's fastest over the run's passes, divided by the host
slowdown that ``reference.py`` measures during the run (see its docstring);
the unscaled pass time is printed too.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes (see ``tracing.py``), plus the tracing
overhead, and the traced outputs must equal the untraced ones byte for byte.
Results, with the run environment, go to ``.perfbench-run/results`` at the
root of the checkout, and the spans of traced passes beside them.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here: imports, inputs, warm caches

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
SETUP_SAMPLES = 9  # set-up time is the median of this many set-ups, all but one in fresh processes
CHILD_TIMEOUT_S = 120
MIN_UNTRACED_PASSES = 3  # even when passes are slow, so that each call has three samples

# name -> (unit, what it is)
END_TO_END = {
    "wall_s": ("s", "time of one full pass, each call at its fastest over the passes, at nominal host speed"),
    "setup_s": ("s", "median fresh-process set-up (import, inputs, warm caches), at nominal host speed"),
    "peak_rss_mb": ("MB", "peak resident memory of the run"),
    "states_per_s": ("1/s", "strategy profiles decided per second inside the exhaustive calls"),
}


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_workloads():
    """Imports pcg from this checkout's src; refuses any other copy."""
    if not (SRC / "pcg" / "__init__.py").is_file():
        _die(f"no pcg sources under {SRC}; run the benchmark inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import pcg
    import workloads

    if Path(pcg.__file__).resolve().parent != SRC / "pcg":
        _die(f"imported pcg from {pcg.__file__}, not from {SRC}")
    return workloads


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "strong", "respond"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _environment(load_1m: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pcg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load_1m,
    }


def _check_spec(workloads, tracing):
    """BENCHMARK.json must name exactly the workloads and metrics this code reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    expected = (
        sorted(workloads.WORKLOADS),
        sorted(END_TO_END),
        [name for name, *_ in tracing.metric_specs()],
    )
    found = (
        sorted(w["name"] for w in spec["workloads"]),
        sorted(m["name"] for m in spec["end_to_end"]),
        [m["name"] for m in spec["per_layer"]],
    )
    if found != expected:
        _die("BENCHMARK.json does not list the workloads and metrics this benchmark reports")


def _setup_samples(args, workdir: Path, first: float) -> list:
    """Set-up times: this process's, then fresh processes' (so import is cold)."""
    samples = [first]
    for k in range(SETUP_SAMPLES - 1):
        probe_dir = workdir / f"setup-{k}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def _measure(workload, pacer, tracing, seconds: float, traced: bool):
    """Alternates untraced (and, if ``traced``, traced) passes for about ``seconds``.

    A new round starts only if it should end within ``seconds``, once an
    untraced run has its minimum number of passes, or a traced run one round.
    """
    kinds = ("plain", "traced") if traced else ("plain",)
    passes = {kind: [] for kind in kinds}
    tracers = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind in kinds:
            gc.collect()
            if kind == "traced":
                tracer = tracing.Tracer()
                tracers.append(tracer)
            else:
                tracer = tracing.Tracer(tracing.ENUMERATION_ONLY, keep_spans=False)
            passes[kind].append(workload.run_pass(tracer, pacer))
        now = time.perf_counter()
        done = len(passes["plain"]) >= (1 if traced else MIN_UNTRACED_PASSES)
        if done and now - begin + (now - round_start) > seconds:
            return passes, tracers


# The host is shared: other tenants slow the same call by up to half, in
# spells of seconds to minutes, and interference only ever adds time. A pass
# time is therefore composed call by call from each call's fastest time over
# the run's passes, and then divided by the run's host slowdown, which the
# reference loop measures from its own least disturbed units; so neither a
# short spell nor one that covers the whole run moves the result.


def _pass_s(passes) -> float:
    labels = passes[0].call_s
    return sum(min(p.call_s[label] for p in passes) for label in labels)


def _states_per_s(passes) -> float:
    labels = [label for label in passes[0].scan if all(label in p.scan for p in passes)]
    states = sum(passes[0].scan[label][0] for label in labels)
    seconds = sum(min(p.scan[label][1] for p in passes) for label in labels)
    return states / seconds if seconds else 0.0


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    args = _parse_args(argv)
    workloads = _import_workloads()
    import reference
    import tracing

    if args.setup_probe is not None:
        workloads.WORKLOADS[args.workload](Path(args.setup_probe), args.seed).setup()
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        return 0

    workdir = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        setup_tracer = tracing.Tracer()
        if args.trace:
            with setup_tracer:
                checks = workload.setup()
        else:
            checks = workload.setup()
        own_setup_s = time.perf_counter() - _STARTED
        _check_spec(workloads, tracing)
        env = _environment(load_1m)
        golden = workloads.load_golden()[args.workload]
        workload.golden = golden
        notes = []
        if args.workload == "respond" and str(args.seed) not in golden:
            notes.append(f"no recorded outputs for seed {args.seed}: checked against the oracle only")

        setup_s = []
        if not args.trace:
            setup_s = _setup_samples(args, workdir, own_setup_s)
        pacer = reference.Pacer()
        passes, tracers = _measure(workload, pacer, tracing, args.seconds, bool(args.trace))
        slowdown = pacer.slowdown
        every = [checks] + [p for kind in passes.values() for p in kind]
        attempted = sum(p.attempted for p in every)
        failed = sum(p.failed for p in every)
        problems = [msg for p in every for msg in p.problems]
        plain = passes["plain"]
        walls = [sum(p.call_s.values()) for p in plain]

        if args.trace:
            reference = plain[0].digests
            for result in passes["traced"]:
                for label, digest in result.digests.items():
                    if reference.get(label) != digest:
                        failed += 1
                        problems.append(f"traced output of {label} differs from the untraced output")
            per_pass = [tracing.layer_metrics(t.stats, setup_tracer.stats, slowdown) for t in tracers]
            values = tracing.median_metrics(per_pass)
            traced_walls = [sum(p.call_s.values()) for p in passes["traced"]]
            values["trace.overhead_s"] = (_pass_s(passes["traced"]) - _pass_s(plain)) / slowdown
            units = {name: unit for name, unit, _, _ in tracing.metric_specs()}
            notes_by_metric = {name: moves for name, _, _, moves in tracing.metric_specs()}
        else:
            traced_walls = []
            values = {
                "wall_s": _pass_s(plain) / slowdown,
                "setup_s": statistics.median(setup_s) / slowdown,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "states_per_s": _states_per_s(plain) * slowdown,
            }
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
            notes_by_metric = {name: meaning for name, (_, meaning) in END_TO_END.items()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "environment": env, "pass_wall_s": walls, "traced_pass_wall_s": traced_walls,
            "call_s": {kind: [p.call_s for p in done] for kind, done in passes.items()},
            "host_slowdown": slowdown, "reference_unit_s": pacer.unit_s,
            "unscaled": {"wall_s": _pass_s(plain), "states_per_s": _states_per_s(plain),
                         "setup_s": statistics.median(setup_s) if setup_s else None},
            "setup_samples_s": setup_s, "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "problems": problems, "notes": notes, "metrics": metrics,
        }
        results = RUN_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        for k, tracer in enumerate(tracers):
            tracer.dump(results / f"{stem}-spans{k}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in problems:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(f"# note: {note}")
    print(f"# passes {len(walls)} untraced" + (f", {len(traced_walls)} traced" if args.trace else "")
          + f"; pass wall_s min {min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}")
    print(f"# host slowdown {slowdown:.4f} from {len(pacer.unit_s)} reference units; times below are divided by it"
          + (f" (unscaled wall_s {record['unscaled']['wall_s']:.4f})" if not args.trace else ""))
    print(f"# error_rate {failed / attempted:.6f} ratio ({failed} failed of {attempted} calls)")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>16.6f}  {metric['unit']:<5}  {notes_by_metric[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
