"""Benchmark harness for multcone.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from src/.  One
run is one fresh process: it imports multcone.cli, gives the program a
fresh cache directory under .perfbench_tmp/, and drives the CLI commands
in-process through multcone.cli.main(argv) with stdout captured and
checked.  A cold workload runs each untraced pass in a fresh child
process instead, with its own empty cache directory, because only the
first pass in a process is cold.  Set-up is repeated in SETUP_PROBES child
processes, spread over the measured phase, and reported as its median.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the same operations run under the outside-in tracer (one cold
pass in-process on a cold workload) and the line holds the per-layer
metrics.  Result files and span dumps go to .perfbench_out/.

    python3 perfbench/run.py --workload NAME --seed 0 --seconds 1 --trace 0 --record

records the stdout digests of the default seed's operations in
perfbench/references.json instead of checking them.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
CHILD_TIMEOUT = 60       # seconds; a run must end within 180
SELFTEST_SECONDS = 2.0

from calibrate import REF_SPEED, Sampler  # noqa: E402
from probe import call_cli, prefill  # noqa: E402
from tracer import LAYER_METRICS, PARTITION, Tracer, layer_metrics  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Abort, build_ops,  # noqa: E402
                       digest, system_calls)

E2E_UNITS = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record reference digests of the default seed")
    return p.parse_args(argv)


# --- metadata ---------------------------------------------------------------

def git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata():
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg()}


# --- child processes --------------------------------------------------------

def _child(mode, spec):
    return [sys.executable, str(HERE / "probe.py"), mode, json.dumps(spec)]


def _run_child(mode, spec, env=None):
    return subprocess.run(_child(mode, spec), check=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT, stdout=subprocess.PIPE).stdout


def fill_cache(spec):
    """Untimed prep: the code under test writes the cache in a child, so
    the measured process finds it on disk, not in memory."""
    _run_child("fill", spec)


def time_setup(spec):
    """Seconds from starting a child to its "ready": interpreter start,
    imports, cache-directory prep and the prefill.  The child reports the
    monotonic clock, which all processes share."""
    t0 = time.perf_counter()
    words = _run_child("setup", spec).split()
    if len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up child printed {' '.join(words)!r}")
    return float(words[1]) - t0


class SetupProbes:
    """SETUP_PROBES set-up times, spread over the measured phase: one after
    an operation once `gap` seconds have passed since the last, and the
    rest after the last operation.  The host's speed drifts over seconds,
    so set-ups timed back to back would all see the same state.  A running
    calibration sampler is paused while a set-up is timed."""

    def __init__(self, spec, gap, sampler=None):
        self.spec, self.gap, self.sampler = spec, gap, sampler
        self.times = []
        self.last = time.perf_counter()

    def take(self):
        with (self.sampler.paused() if self.sampler
              else contextlib.nullcontext()):
            self.times.append(time_setup(self.spec))
        self.last = time.perf_counter()

    def between(self):
        if (len(self.times) < SETUP_PROBES and
                time.perf_counter() - self.last >= self.gap):
            self.take()

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self.take()
        return self.times


# --- operations -------------------------------------------------------------


class Gate:
    """Checks every operation's output; counts wrong and missed ones."""

    def __init__(self, workload, seed, record):
        self.workload, self.seed, self.record = workload, seed, record
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        self.refs = refs.get(workload, {})
        self.recorded = {}
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def compare(self, key, value):
        """Problems found comparing a digest with its recorded reference;
        in record mode, records it instead."""
        if self.record:
            self.recorded[key] = value
        elif key in self.refs:
            if value != self.refs[key]:
                return [("wrong", "differs from the reference")]
        elif self.seed == DEFAULT_SEED:
            return [("wrong", "no reference recorded")]
        return []

    def check(self, call, rc, out):
        self.attempted += 1
        try:
            probs = call.check(rc, out)
            probs += self.compare(call.key, call.digest(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            probs = [("wrong", f"unreadable output ({exc!r})")]
        if probs:
            self.failed += 1
            self.wrong += any(kind == "wrong" for kind, _ in probs)
            self.problems.append((call.key, probs))

    def flag(self, key, text):
        """A wrong result found outside any single call's check."""
        self.wrong += 1
        self.problems.append((key, [("wrong", text)]))

    def save(self):
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        refs[self.workload] = dict(sorted(self.recorded.items()))
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def check_cache(gate, cache, ops):
    """A cold pass must leave one cache file per table it built."""
    written = len(list(cache.glob("table-*.json")))
    tables = sum(len(op.calls) for op in ops)
    if written != tables:
        gate.flag("cache", f"{written} cache files for {tables} tables")


def in_process_pass(cli, ops, gate, tracer, between, sampler=None):
    """One pass over the operations in this process; returns the seconds
    of each and the kernel speeds the sampler took during the pass.
    `between()` runs after every operation, outside the timing."""
    times = []
    first = len(sampler.speeds) if sampler else 0
    for op in ops:
        if tracer:
            tracer.tag = op.tag
        elapsed = 0.0
        for call in op.calls:
            secs, rc, out = call_cli(cli, call.argv, sampler)
            gate.check(call, rc, out)
            elapsed += secs
        times.append(elapsed)
        between()
    return times, sampler.speeds[first:] if sampler else []


class ColdPasses:
    """Passes that each run in a fresh child process with an empty cache
    directory of their own; keeps the children's peak memory."""

    def __init__(self, ops, gate, tmpdir, between):
        self.ops, self.gate, self.tmpdir = ops, gate, tmpdir
        self.between = between
        self.count = 0
        self.maxrss_kb = 0

    def __call__(self):
        self.count += 1
        cache = self.tmpdir / f"cold-{self.count}"
        env = dict(os.environ, MULTCONE_CACHE_DIR=str(cache))
        res = json.loads(_run_child(
            "cold", [[call.argv for call in op.calls] for op in self.ops],
            env).splitlines()[-1])
        times = []
        for op, results in zip(self.ops, res["ops"]):
            for call, (_, rc, out) in zip(op.calls, results):
                self.gate.check(call, rc, out)
            times.append(sum(r[0] for r in results))
        check_cache(self.gate, cache, self.ops)
        shutil.rmtree(cache, ignore_errors=True)
        self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
        self.between()
        return times, res["speeds"]


def measure(run_pass, seconds, min_passes, max_passes=0):
    """Calls run_pass() until `seconds` have been measured and `min_passes`
    passes made, or `max_passes` reached.  Returns per-pass seconds,
    per-operation seconds in call order, and the kernel speeds sampled."""
    passes, samples, speeds = [], [], []
    while True:
        times, sampled = run_pass()
        passes.append(sum(times))
        samples += times
        speeds += sampled
        if len(passes) == max_passes or (
                len(passes) >= min_passes and sum(passes) >= seconds):
            return passes, samples, speeds


def tracing_overhead(cli, tracer, op):
    """Run one warm operation alternately untraced and traced; returns the
    relative slowdown of the median and whether stdout was byte-identical."""
    times = {False: [], True: []}
    outputs = {False: set(), True: set()}
    t0 = time.perf_counter()
    while len(times[False]) < 10 and (
            not times[False] or time.perf_counter() - t0 < SELFTEST_SECONDS):
        for traced in (False, True):
            if traced:
                tracer.install()
            runs = [call_cli(cli, call.argv) for call in op.calls]
            tracer.uninstall()
            times[traced].append(sum(r[0] for r in runs))
            outputs[traced].add(tuple(r[2] for r in runs))
    overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1
    return overhead, len(outputs[False] | outputs[True]) == 1


# --- reporting --------------------------------------------------------------

def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(value, unit):
    return {"value": value, "unit": unit}


def self_time_table(tracer, top=6):
    by_name = {}
    for s in tracer.spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + s.self_time
    rows = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
    return [f"  self {name:<28} {secs:9.3f} s" for name, secs in rows]


def trace_report(cli, tracer, ops, samples, import_s, gate, lines, name,
                 seed):
    """Per-layer metrics of a traced run, with its tracing self-test."""
    metrics = layer_metrics(tracer.spans, cli)
    metrics["cli.import_s"] = import_s
    # the share of the measured time that the per-layer self times of the
    # measured phase account for
    measured = layer_metrics(tracer.in_phase("measure"), cli)
    metrics["trace.coverage"] = sum(measured[k] for k in PARTITION) / sum(samples)
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_path)
    lines += self_time_table(tracer)
    cheapest = ops[min(range(len(ops)), key=lambda k: samples[k])]
    tracer.phase = "selftest"
    metrics["trace.overhead_frac"], identical = tracing_overhead(
        cli, tracer, cheapest)
    if not identical:
        gate.flag(cheapest.calls[0].key, "traced and untraced stdout differ")
    lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    return {k: metric(metrics[k], u) for k, u in LAYER_METRICS.items()}


def per_op_median_sum(values, n):
    """A pass, with each of its n operations taken as its median over the
    passes."""
    return sum(statistics.median(values[k::n]) for k in range(n))


def e2e_report(ops, passes, samples, speeds, setups, maxrss_kb, lines):
    """End-to-end metrics of an untraced run."""
    pass_s = per_op_median_sum(samples, len(ops))
    setup_wall_s = statistics.median(setups)
    # reference seconds per wall second, from the kernel's mean sampled
    # speed; the set-ups are timed between the operations it was sampled in
    scale = statistics.fmean(speeds) / REF_SPEED
    values = {
        "setup_s": setup_wall_s * scale,
        "pass_ref_s": pass_s * scale,
        "peak_rss_mb": maxrss_kb / 1024,
    }
    report = {k: metric(values[k], u) for k, u in E2E_UNITS.items()}
    lines.append(f"  samples: setup_s {len(setups)}, pass_ref_s {len(passes)} "
                 f"pass(es), {len(speeds)} kernel samples")
    lines.append(f"  wall time: set-up {setup_wall_s:.4f} s, pass "
                 f"{pass_s:.4f} s; reference seconds per wall second {scale:.4f}")
    lines += [f"  {k:<12} {v['value']:12.4f} {v['unit']}"
              for k, v in report.items()]
    by_tag = {"all": samples}
    for op, secs in zip(ops * len(passes), samples):
        if op.tag:
            by_tag.setdefault(op.tag, []).append(secs)
    for tag, v in by_tag.items():
        line = (f"  {tag} operations: p50 {statistics.median(v) * 1000:.1f} ms")
        if len(v) >= 100:       # ten samples beyond the 90th percentile
            line += f", p90 {p90(v) * 1000:.1f} ms"
        lines.append(line + f" over {len(v)}")
    return report


def run(args, tmpdir, meta):
    wl = WORKLOADS[args.workload]
    cache = tmpdir / "cache"
    os.environ["MULTCONE_CACHE_DIR"] = str(cache)   # inherited by children
    t0 = time.perf_counter()
    from multcone import cli
    import_s = time.perf_counter() - t0
    import numpy
    meta["numpy"] = numpy.__version__

    spec = {"tables": wl.tables, "systems": wl.systems}
    if wl.tables:
        fill_cache(spec)
    cache.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()      # the prefill is where the cache is read
    systems = prefill(cli, spec)
    ops = build_ops(wl.name, ROOT, tmpdir, systems, args.seed)
    point_hashes = [op.calls[0].key.split()[-1] for op in ops if op.tag]

    gate = Gate(wl.name, args.seed, args.record)
    maxrss_kb = None
    if tracer:        # set-up is timed in untraced runs only
        tracer.phase = "measure"
        probes = None
        passes, samples, speeds = measure(
            lambda: in_process_pass(cli, ops, gate, tracer, lambda: None),
            args.seconds, wl.min_passes, max_passes=1 if wl.cold else 0)
        tracer.uninstall()
        if wl.cold:
            check_cache(gate, cache, ops)
    else:
        if wl.cold:   # the children sample the kernel
            probes = SetupProbes(spec, args.seconds / SETUP_PROBES)
            cold = ColdPasses(ops, gate, tmpdir, probes.between)
            passes, samples, speeds = measure(cold, args.seconds,
                                              wl.min_passes)
            maxrss_kb = cold.maxrss_kb
        else:
            sampler = Sampler()
            probes = SetupProbes(spec, args.seconds / SETUP_PROBES, sampler)
            sampler.start()
            try:
                passes, samples, speeds = measure(
                    lambda: in_process_pass(cli, ops, gate, None,
                                            probes.between, sampler),
                    args.seconds, wl.min_passes)
            finally:
                sampler.stop()
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = probes.finish() if probes else []
    for call in system_calls(ROOT, systems):
        gate.check(call, *call_cli(cli, call.argv)[1:])
    measured = sum(samples)
    lines = [f"workload {wl.name} seed {args.seed}: {len(passes)} pass(es) of "
             f"{len(ops)} operations, {measured:.2f} s measured, "
             f"set-up repeated {len(setups)} times"]

    if tracer:
        report = trace_report(cli, tracer, ops, samples, import_s, gate,
                              lines, wl.name, args.seed)
    else:
        report = e2e_report(ops, passes, samples, speeds, setups, maxrss_kb,
                            lines)
    for key, probs in gate.problems:
        lines += [f"  {kind.upper()}: {key}: {text}" for kind, text in probs]

    if args.record:
        gate.save()
    meta.update(loadavg_after=os.getloadavg(), workload=wl.name,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                point_files=point_hashes)
    result = {"correct": gate.wrong == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": report}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"meta": meta, "result": result,
                                    "passes": passes, "samples": samples,
                                    "speeds": speeds,
                                    "setups": setups},
                                   indent=1))
    meta["point_files"] = digest(" ".join(point_hashes))[:16] if point_hashes else None
    print("\n".join(lines))
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: references are recorded with --seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "multcone" / "cli.py").is_file():
        print(f"error: no multcone sources under {ROOT / 'src'}; run the "
              "benchmark from the root of a multcone checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    meta = run_metadata()
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=tmp_parent))
    try:
        return run(args, tmpdir, meta)
    except Abort as exc:
        print(f"error: run aborted: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
