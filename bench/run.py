"""Benchmark of `rht`: one workload per invocation, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory and nowhere else, so the command fails (exit 2, no result) when
the sources are missing.

Times are reported at a fixed machine speed (see `speed.py`): the machine
this runs on changes speed by up to 1.8x within seconds, and the probe
takes that factor out.  The raw figures are printed beside them.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over fresh interpreters of the time from process start
               to inputs ready (`import rht` plus input construction);
  wall_s       median over passes of the time one pass of the workload's
               task list spends in `rht` calls (input construction and the
               benchmark's own oracle checks are not timed);
  peak_rss_mb  peak resident memory of this process;
  cmd_p50_ms,  latency percentiles of one command: a CLI invocation on
  cmd_p90_ms   cli_battery, one top-level library call of the task list on
               the other workloads.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of `tracer.py` (times are medians of the traced passes, scaled like
wall_s), the tracing overhead, and fails the run if the tracer's
install/uninstall self-test fails, if two traced passes disagree on an
exact count, or if any pass produces different outputs.

Every operation is checked against an oracle in `workloads.py`; a raising
or wrong operation counts in `failed` and never aborts the run.  The last
line of stdout is the JSON result; the lines before it are for people.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback

from speed import SpeedProbe, clock

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_PROBES = 9          # measured fresh interpreters, after one warm-up probe
MIN_PASSES = 3            # per run, even when the passes outlast --seconds
MIN_TRACED_PASSES = 2     # per traced run, of each kind


def load_workloads():
    """Import rht from the sources beside the benchmark, then the workloads."""
    package = os.path.join(SRC, "rht")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.stderr.write("bench: no rht sources at %s\n" % package)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import rht
    if os.path.dirname(os.path.abspath(rht.__file__)) != package:
        sys.stderr.write("bench: imported rht from %s, not %s\n" % (rht.__file__, package))
        sys.exit(2)
    import workloads
    return workloads


def run_pass(workload, pass_no, probe):
    """One pass of the task list: timings, failures and canonical outputs."""
    latencies, raw, failures, outputs = [], [], [], {}
    attempted = 0
    for task in workload.tasks(pass_no):
        attempted += task.ops
        try:
            value, seconds, scaled = probe.measure(task.compute)
        except Exception:
            failures.extend(["%s raised:\n%s" % (task.name, traceback.format_exc())] * task.ops)
            continue
        latencies.append(scaled)
        raw.append(seconds)
        try:
            bad, outputs[task.name] = task.check(value)
        except Exception:
            bad = ["%s: oracle check raised:\n%s" % (task.name, traceback.format_exc())] * task.ops
        failures.extend(bad[:task.ops])
    return {"wall": sum(latencies), "raw_wall": sum(raw), "latencies": latencies,
            "raw_latencies": raw, "attempted": attempted, "failures": failures,
            "outputs": outputs}


def measure_setup(name, seed, probe):
    """Median (scaled, raw) time from spawning an interpreter to its inputs being ready."""
    scaled, raw = [], []
    for n in range(SETUP_PROBES + 1):
        first = len(probe.samples)
        probe.sample()
        t0 = clock()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--setup-probe",
                                 "--workload", name, "--seed", str(seed)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            seconds = clock() - t0
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        probe.sample()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        if n:
            scaled.append(seconds * probe.scale(first))
            raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def percentiles(samples):
    if len(samples) < 2:              # every command raised: report, do not abort
        return (samples[0], samples[0]) if samples else (0.0, 0.0)
    cuts = statistics.quantiles(samples, n=10)
    return cuts[4], cuts[8]


def compare_outputs(passes, failures):
    first = passes[0]["outputs"]
    for n, p in enumerate(passes[1:], start=1):
        if p["outputs"] != first:
            diff = sorted(k for k in set(first) | set(p["outputs"]) if first.get(k) != p["outputs"].get(k))
            failures.append("pass %d outputs differ from pass 0 on %s" % (n, ", ".join(diff)))


def untraced(wl, name, seed, seconds):
    with SpeedProbe() as probe:
        setup_s, raw_setup_s = measure_setup(name, seed, probe)
        passes = []
        deadline = clock() + seconds
        while len(passes) < MIN_PASSES or clock() < deadline:
            passes.append(run_pass(wl.WORKLOADS[name](seed), len(passes), probe))
    failures = [f for p in passes for f in p["failures"]]
    compare_outputs(passes, failures)
    latencies = [x for p in passes for x in p["latencies"]]
    raw_latencies = [x for p in passes for x in p["raw_latencies"]]
    p50, p90 = percentiles(latencies)
    raw_p50, raw_p90 = percentiles(raw_latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cmd_p50_ms": (p50 * 1000.0, "ms"),
        "cmd_p90_ms": (p90 * 1000.0, "ms"),
    }
    notes = ["passes %d, commands %d (%d above p90); setup_s from %d fresh interpreters"
             % (len(passes), len(latencies), sum(1 for x in latencies if x > p90), SETUP_PROBES),
             "raw (unscaled): setup_s %.6f, wall_s %.6f, cmd_p50_ms %.4f, cmd_p90_ms %.4f"
             % (raw_setup_s, statistics.median(p["raw_wall"] for p in passes),
                raw_p50 * 1000.0, raw_p90 * 1000.0)]
    return passes, failures, metrics, notes


def traced(wl, name, seed, seconds):
    import tracer as tracing
    units = tracing.metric_units()
    tr = tracing.Tracer()
    plain, traced_passes, layer_runs, failures = [], [], [], []
    with SpeedProbe() as probe:
        deadline = clock() + seconds
        while (len(plain) < MIN_TRACED_PASSES or len(traced_passes) < MIN_TRACED_PASSES
               or clock() < deadline):
            pass_no = len(plain) + len(traced_passes)
            workload = wl.WORKLOADS[name](seed)
            if len(plain) <= len(traced_passes):
                plain.append(run_pass(workload, pass_no, probe))
                continue
            tr.reset()
            tr.install()
            probe.on_stolen = tr.add_overhead
            try:
                failures.extend("tracer install: " + p for p in tr.install_problems())
                result = run_pass(workload, pass_no, probe)
            finally:
                probe.on_stolen = None
                tr.uninstall()
            failures.extend("tracer uninstall: " + p for p in tr.uninstall_problems())
            traced_passes.append(result)
            scale = result["wall"] / result["raw_wall"] if result["raw_wall"] else 1.0
            layer_runs.append({k: v * scale if units[k] == "s" else v
                               for k, v in tr.metrics().items()})
    passes = plain + traced_passes
    failures.extend(f for p in passes for f in p["failures"])
    compare_outputs(passes, failures)
    exact = [tracing.exact_counts(m) for m in layer_runs]
    for n, counts in enumerate(exact[1:], start=1):
        if counts != exact[0]:
            diff = sorted(k for k in counts if counts[k] != exact[0][k])
            failures.append("traced pass %d counts differ from traced pass 0 on %s" % (n, ", ".join(diff)))
    metrics = {}
    for key, unit in units.items():
        values = [m[key] for m in layer_runs]
        metrics[key] = (statistics.median(values) if unit == "s" else values[0], unit)
    untraced_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced_passes)
    overhead = traced_wall / untraced_wall if untraced_wall else 0.0
    metrics["bench.untraced_wall_s"] = (untraced_wall, "s")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    notes = ["untraced passes %d, traced passes %d" % (len(plain), len(traced_passes)),
             "trace overhead %.4f = traced wall_s %.6f s / untraced wall_s %.6f s"
             % (overhead, traced_wall, untraced_wall),
             "time waited per layer: not applicable (rht never waits on a queue, "
             "a lock or another process)"]
    if tr.missing:
        notes.append("not traced, absent from rht (metrics read 0): " + ", ".join(tr.missing))
    return passes, failures, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = load_workloads()
    if args.workload not in wl.WORKLOADS:
        ap.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(wl.WORKLOADS)))
    if args.setup_probe:
        wl.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    run = traced if args.trace else untraced
    passes, failures, metrics, notes = run(wl, args.workload, args.seed, args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = min(len(failures), attempted)
    for f in failures[:20]:
        sys.stderr.write("FAILED %s\n" % f)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    print("  failed_frac %.6f (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    for key, (value, unit) in metrics.items():
        print("  %-40s %16.6f %s" % (key, value, unit))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
