"""Child process of the benchmark harness.

    python3 perfbench/probe.py fill  '<spec>'   write the table cache
    python3 perfbench/probe.py setup '<spec>'   repeat a workload's set-up
    python3 perfbench/probe.py cold  '<ops>'    one cold pass of operations

The spec is JSON: {"tables": [labels], "systems": [[label, n], ...]}.  The
cache directory comes from MULTCONE_CACHE_DIR.  `fill` builds every
maximal-parabolic table of each label through the CLI, so the cache is
written by the code under test.  `setup` imports the CLI, prepares the
cache directory and prefills the in-process tables and inequality systems
from it, then prints "ready" and the monotonic clock, which the harness
subtracts from the moment it started the process.  `cold` takes a list of
operations, each a list of CLI argvs, runs them in order in this fresh
process with the calibration sampler running, and prints one JSON
object: every call's [seconds, exit code, stdout] grouped by operation,
the sampled kernel speeds, and the process's peak resident memory.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from calibrate import Sampler


def call_cli(cli, argv, sampler=None):
    """(seconds, exit code, stdout) of one in-process CLI call; the time
    a running sampler took during the call is not counted."""
    buf = io.StringIO()
    stolen = sampler.stolen if sampler else 0.0
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        elapsed = time.perf_counter() - t0
    if sampler:
        elapsed -= sampler.stolen - stolen
    return elapsed, rc, buf.getvalue()


def prefill(cli, spec):
    """Load every table of spec["tables"] through the CLI's cache and
    generate every system of spec["systems"]; returns the systems."""
    from multcone.eigencone import generate_inequalities
    from multcone.root_system import build_root_system
    for label in spec["tables"]:
        rs = build_root_system(label[0], int(label[1:]))
        for ip in range(1, rs.rank + 1):
            cli.load_table(rs, ip)
    return {(label, n): generate_inequalities(
                build_root_system(label[0], int(label[1:])), n)
            for label, n in spec["systems"]}


def main(mode, spec):
    from multcone import cli
    os.makedirs(cli.cache_dir(), exist_ok=True)
    if mode == "setup":
        prefill(cli, spec)
        print("ready", time.perf_counter(), flush=True)
        return 0
    if mode == "cold":
        sampler = Sampler()
        sampler.start()
        ops = [[call_cli(cli, argv, sampler) for argv in op] for op in spec]
        sampler.stop()
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"ops": ops, "speeds": sampler.speeds,
                          "maxrss_kb": kb}))
        return 0
    for label in spec["tables"]:
        for ip in range(1, int(label[1:]) + 1):
            rc = call_cli(cli, ["tables", "--type", label,
                                "--parabolic", str(ip)])[1]
            if rc != 0:
                print(f"error: tables {label} P{ip} exited {rc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1], json.loads(sys.argv[2])))
