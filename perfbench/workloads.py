"""The benchmark's four workloads and the correctness gate of each operation.

Every workload is closed loop with one client: the harness sends the next
CLI invocation only after the previous one returned.  Each workload is
chosen so that one costly layer dominates it:

- tables-cold: `tables` for every maximal parabolic of B2, G2, A3, B3, C3
  and A4 from an empty cache, each pass in a fresh process.  The Weyl layer,
  the full-flag table and the per-degree quantum solves do the work, and
  the disk cache is written.
- certify: `verify` (serial, the CLI default) on B2 n=3, G2 n=3 and A2 n=4
  with a warm cache.  The exact simplex dominates: one LP per inequality,
  29 to 54 of them, of up to 57 rows, so a change in how it scales shows.
- member-warm: `member --format json` on sampled A3 n=4 tuples with a warm
  cache.  Each call regenerates the 384-inequality system and evaluates
  every slack; the disk cache is only read here.
- oracle: one `oracle-compare` per fixed sampled SU3 or Sp4 n=3 tuple,
  with the CLI default restarts, in the inside/outside mix of the
  criterion-09 sample.  Inside tuples exercise early stopping, outside
  tuples burn the whole search budget.

tables-cold, certify and oracle take fixed inputs; the seed picks the
tuples of member-warm.  A check returns a list of problems: "wrong" ones
mean the program's output is incorrect, "miss" ones an operation that did
not reach its goal without being wrong (an inside tuple the one-sided
oracle did not certify).  A false-feasible oracle row raises Abort.
"""

import hashlib
import json
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# (type, parabolic) -> fixture file; compared after the normalization of
# the golden-table acceptance criterion
FIXTURES = {("B2", 2): "b2p2.txt", ("G2", 1): "g2p1.txt", ("G2", 2): "g2p2.txt"}

# verify cases and the size of each generated system.  A3 n=3 (72) is left
# out: one serial verify of it takes 20 to 24 s on a 2-core host, which
# would make a certify run half as long again.
CERTIFY_CASES = [("B2", 3, 29), ("G2", 3, 39), ("A2", 4, 54)]

# Inside/outside quotas match the inside share of the criterion-09 sampler
# (uniform grid points, margin 1/20), measured over at least 600,000
# accepted tuples per system: 73.2% for SU3 n=3, 95.1% for Sp4 n=3 and
# 99.87% for A3 n=4.  The criterion's own seeded samples agree: 36 of 50
# SU3 and 49 of 50 Sp4 tuples are inside.  Sp4 needs 20 tuples for one
# outside tuple at its share; at A3 n=4's, 34 tuples round to none.
MEMBER_QUOTA = {"inside": 34, "outside": 0}   # x3 passes: 102 calls
ORACLE_QUOTAS = {                     # SU3 and Sp4
    "A2": {"inside": 3, "outside": 1},
    "C2": {"inside": 19, "outside": 1},
}
ORACLE_GROUPS = list(ORACLE_QUOTAS)
# The oracle's tuples come from this fixed sampler seed and the CLI's
# default --seed: one search costs from 0.1 s to 3.5 s depending on the
# tuple and the restarts' random starts, far more than a run can average
# out, so varying them with the run seed would bury every change in noise.
ORACLE_TUPLE_SEED = DEFAULT_SEED
ORACLE_TOL = 1e-8                     # the CLI default --tol


class Abort(Exception):
    """A result so wrong that the run stops without reporting metrics."""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Call:
    argv: list
    key: str                          # reference key, stable across runs
    check: object                     # callable(rc, stdout) -> [(kind, text)]
    digest: object = digest           # stdout -> digest compared with the reference


@dataclass
class Op:
    """One timed operation: the CLI calls a user makes for one result."""
    calls: list
    tag: str = ""


@dataclass
class Workload:
    name: str
    tables: list                      # labels whose tables the cache holds
    systems: list = field(default_factory=list)   # (label, n) prefilled
    min_passes: int = 1
    cold: bool = False                # each pass needs a fresh process


def parabolics(label):
    return range(1, int(label[1:]) + 1)


def normalize_table(text):
    lines = [re.sub(r" +", " ", ln).rstrip() for ln in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


def oracle_digest(text):
    """Digest of the exact part of an oracle-compare result.  Residuals
    depend on the LAPACK build in their last digits, and whether the
    one-sided search certifies an inside tuple is checked separately."""
    obj = json.loads(text)
    exact = {k: obj[k] for k in ("group", "n", "total", "false_feasible")}
    exact["rows"] = [row["exact"] for row in obj["rows"]]
    return digest(json.dumps(exact, sort_keys=True))


WORKLOADS = {
    "tables-cold": Workload("tables-cold", [], cold=True),
    "certify": Workload("certify", [c[0] for c in CERTIFY_CASES],
                        [(c[0], c[1]) for c in CERTIFY_CASES], min_passes=2),
    "member-warm": Workload("member-warm", ["A3"], [("A3", 4)], min_passes=3),
    "oracle": Workload("oracle", ORACLE_GROUPS,
                       [(g, 3) for g in ORACLE_GROUPS], min_passes=2),
}

COLD_TYPES = ["B2", "G2", "A3", "B3", "C3", "A4"]


def _expect_rc(rc, want=0):
    return [] if rc == want else [("wrong", f"exit code {rc}, expected {want}")]


def tables_ops(root):
    """One operation per type: the tables of all its maximal parabolics,
    the unit at which the full-flag table is computed."""
    ops = []
    for label in COLD_TYPES:
        calls = []
        for ip in parabolics(label):
            fixture = FIXTURES.get((label, ip))
            want = None
            if fixture:
                want = normalize_table(
                    (root / "tests" / "fixtures" / fixture).read_text())

            def check(rc, out, want=want):
                probs = _expect_rc(rc)
                if not out.startswith("# deformed multiplication table"):
                    probs.append(("wrong", "not a table"))
                if want is not None and normalize_table(out) != want:
                    probs.append(("wrong", "differs from the golden fixture"))
                return probs

            argv = ["tables", "--type", label, "--parabolic", str(ip)]
            calls.append(Call(argv, " ".join(argv), check))
        ops.append(Op(calls))
    return ops


def certify_ops():
    ops = []
    for label, n, count in CERTIFY_CASES:
        def check(rc, out, count=count):
            probs = _expect_rc(rc)
            obj = json.loads(out)
            if obj["total"] != count or obj["irredundant"] != count:
                probs.append(("wrong", f"{obj['irredundant']}/{obj['total']} "
                                       f"certified, expected {count}/{count}"))
            if not obj["all_certified"] or not all(
                    c["certified"] for c in obj["certificates"]):
                probs.append(("wrong", "an inequality is uncertified"))
            if obj["duplicate_pairs"]:
                probs.append(("wrong", "duplicate pairs reported"))
            return probs

        argv = ["verify", "--type", label, "-n", str(n), "--format", "json"]
        ops.append(Op([Call(argv, " ".join(argv), check)]))
    return ops


def _point_files(tmpdir, label, tuples, stem):
    """Write one point file per tuple; returns (path, content hash, tag)."""
    out = []
    for k, (pts, tag) in enumerate(tuples):
        text = json.dumps({"points": pts})
        path = tmpdir / f"{stem}-{label}-{k:03d}.json"
        path.write_text(text)
        out.append((str(path), digest(text), tag))
    return out


def _schema_validator(root, name):
    import jsonschema
    schema = json.loads(
        (root / "src" / "multcone" / "schemas" / name).read_text())
    return jsonschema.Draft202012Validator(schema)


def member_ops(root, tmpdir, systems, seed):
    from multcone.root_system import build_root_system
    from sampler import sample_tuples
    validator = _schema_validator(root, "member.schema.json")
    rs = build_root_system("A", 3)
    tuples = sample_tuples(rs, 4, systems[("A3", 4)], seed=seed,
                           **MEMBER_QUOTA)
    ops = []
    for path, sha, tag in _point_files(tmpdir, "A3", tuples, "member"):
        def check(rc, out, tag=tag):
            probs = _expect_rc(rc)
            obj = json.loads(out)
            probs += [("wrong", f"schema: {e.message}")
                      for e in validator.iter_errors(obj)]
            status = ("outside" if obj["violated"] else
                      "boundary" if obj["tight"] else "inside")
            if obj["status"] != status:
                probs.append(("wrong", f"status {obj['status']} disagrees "
                                       "with its violated/tight lists"))
            if obj["status"] != tag:
                probs.append(("wrong", f"status {obj['status']}, "
                                       f"sampled as {tag}"))
            return probs

        argv = ["member", "--type", "A3", "-n", "4", "--point", path,
                "--format", "json"]
        ops.append(Op([Call(argv, f"member A3 -n 4 {sha}", check)], tag))
    return ops


def oracle_ops(root, tmpdir, systems):
    from multcone.root_system import build_root_system
    from sampler import sample_tuples
    validator = _schema_validator(root, "oracle.schema.json")
    ops = []
    for g, label in enumerate(ORACLE_GROUPS):
        rs = build_root_system(label[0], int(label[1:]))
        tuples = sample_tuples(rs, 3, systems[(label, 3)],
                               seed=(ORACLE_TUPLE_SEED, g),
                               **ORACLE_QUOTAS[label])
        for path, sha, tag in _point_files(tmpdir, label, tuples, "oracle"):
            def check(rc, out, tag=tag):
                obj = json.loads(out)
                if obj["false_feasible"] or rc == 1:
                    raise Abort(f"false-feasible oracle row ({out.strip()})")
                probs = _expect_rc(rc)
                probs += [("wrong", f"schema: {e.message}")
                          for e in validator.iter_errors(obj)]
                row = obj["rows"][0]
                if obj["total"] != 1 or row["exact"] != tag:
                    probs.append(("wrong", f"exact verdict {row['exact']}, "
                                           f"sampled as {tag}"))
                elif tag == "inside" and not (row["feasible"] and
                                              row["residual"] < ORACLE_TOL):
                    probs.append(("miss", "inside tuple not certified"))
                return probs

            argv = ["oracle-compare", "--type", label, "-n", "3",
                    "--point", path, "--format", "json"]
            ops.append(Op([Call(argv, f"oracle-compare {label} -n 3 {sha}",
                                check, oracle_digest)], tag))
    return ops


def system_calls(root, systems):
    """`inequalities` for every system the workload's operations evaluate,
    checked once after the measured phase: a `member` verdict shows only
    the inequalities a tuple violates."""
    validator = _schema_validator(root, "inequalities.schema.json")
    calls = []
    for (label, n), inequalities in systems.items():
        def check(rc, out, count=len(inequalities)):
            probs = _expect_rc(rc)
            obj = json.loads(out)
            probs += [("wrong", f"schema: {e.message}")
                      for e in validator.iter_errors(obj)]
            if obj["count"] != count or len(obj["inequalities"]) != count:
                probs.append(("wrong", f"{obj['count']} inequalities, the "
                                       f"library generated {count}"))
            return probs

        argv = ["inequalities", "--type", label, "-n", str(n),
                "--format", "json"]
        calls.append(Call(argv, " ".join(argv), check))
    return calls


def build_ops(name, root, tmpdir, systems, seed):
    if name == "tables-cold":
        return tables_ops(root)
    if name == "certify":
        return certify_ops()
    if name == "member-warm":
        return member_ops(root, tmpdir, systems, seed)
    return oracle_ops(root, tmpdir, systems)
