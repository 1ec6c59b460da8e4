"""Outside-in tracing of multcone's layers.

The tracer rebinds the public entry points of each module, in every
multcone module that holds them (the CLI and the eigencone module import
most of them by name), to wrappers that record a span: name, start, end,
parent span and the top-level operation it belongs to.  Spans stay in
memory; `layer_metrics` turns them into per-layer self times, counts and
sizes, and `dump` writes them out.  Nothing inside the program changes.
"""

import functools
import os
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  An attribute "Class.method" is rebound
# on the class.  quantum_ring.build_structure_table is named per call:
# "solve" for a fresh build, "restore" for a table whose constants were
# read back from the cache (preset_tau given).
ENTRY_POINTS = [
    ("multcone.cli", "main", "cli.main"),
    ("multcone.cli", "load_table", "cli.load_table"),
    ("multcone.cli", "_table_from_payload", "cli.cache_restore"),
    ("multcone.cli", "_store_table", "cli.cache_write"),
    ("multcone.weyl", "get_weyl_group", "weyl.group"),
    ("multcone.weyl", "minimal_reps", "weyl.cosets"),
    ("multcone.quantum_ring", "classical_flag_table", "quantum_ring.flag"),
    ("multcone.quantum_ring", "build_structure_table", None),
    ("multcone.deformed_ring", "render_table", "deformed_ring.render"),
    ("multcone.eigencone", "generate_inequalities", "eigencone.generate"),
    ("multcone.eigencone", "membership", "eigencone.membership"),
    ("multcone.eigencone", "irredundancy_check", "eigencone.irredundancy"),
    ("multcone.eigencone", "_certify_payload", "eigencone.certify"),
    ("multcone.eigencone", "_Simplex.__init__", "eigencone.lp_build"),
    ("multcone.eigencone", "_Simplex.maximize", "eigencone.lp_solve"),
    ("multcone.eigencone", "_Simplex._pivot", "eigencone.pivot"),
    ("multcone.eigencone", "distinctness_check", "eigencone.distinctness"),
    ("multcone.unitary_oracle", "numeric_membership", "unitary_oracle.search"),
]

# Spans of the exact simplex keep neither arguments nor result, which would
# hold every tableau alive; an LP build keeps only its number of rows.
LIGHT_SPANS = {
    "eigencone.lp_build": lambda args, kwargs: len(
        args[1] if len(args) > 1 else kwargs["a_rows"]),
    "eigencone.lp_solve": None,
    "eigencone.pivot": None,
}

# span name -> metric that receives its self time.  Every span's self time
# goes to exactly one metric, so these metrics partition the traced time.
# cli.load_table is the exception handled in layer_metrics: its self time
# is cache reading on a cache hit and CLI bookkeeping otherwise.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.cache_restore": "cli.cache_read_s",
    "cli.cache_write": "cli.cache_write_s",
    "weyl.group": "weyl.group_s",
    "weyl.cosets": "weyl.cosets_s",
    "quantum_ring.flag": "quantum_ring.flag_s",
    "quantum_ring.solve": "quantum_ring.solve_s",
    "quantum_ring.restore": "quantum_ring.restore_s",
    "deformed_ring.render": "deformed_ring.render_s",
    "eigencone.generate": "eigencone.generate_s",
    "eigencone.membership": "eigencone.membership_s",
    "eigencone.irredundancy": "eigencone.irredundancy_s",
    "eigencone.certify": "eigencone.certify_s",
    "eigencone.lp_build": "eigencone.lp_build_s",
    "eigencone.lp_solve": "eigencone.lp_solve_s",
    "eigencone.pivot": "eigencone.pivot_s",
    "eigencone.distinctness": "eigencone.distinctness_s",
}

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "weyl.group_s": "s", "weyl.cosets_s": "s",
    "weyl.W": "count", "weyl.WP": "count",
    "quantum_ring.flag_s": "s", "quantum_ring.solve_s": "s",
    "quantum_ring.restore_s": "s", "quantum_ring.constants": "count",
    "deformed_ring.render_s": "s",
    "eigencone.generate_s": "s", "eigencone.ineqs": "count",
    "eigencone.membership_s": "s", "eigencone.membership_calls": "count",
    "eigencone.slack_evals": "count",
    "eigencone.irredundancy_s": "s", "eigencone.certify_s": "s",
    "eigencone.lp_build_s": "s", "eigencone.lp_solve_s": "s",
    "eigencone.pivot_s": "s", "eigencone.lps": "count",
    "eigencone.lp_rows_max": "count", "eigencone.lp_solves": "count",
    "eigencone.pivots": "count",
    "eigencone.cert_separating": "count", "eigencone.cert_facet": "count",
    "eigencone.cert_failed": "count", "eigencone.distinctness_s": "s",
    "unitary_oracle.inside_s": "s", "unitary_oracle.outside_s": "s",
    "unitary_oracle.calls": "count", "unitary_oracle.certified_ratio": "ratio",
    "cli.import_s": "s", "cli.self_s": "s",
    "cli.cache_read_s": "s", "cli.cache_hits": "count",
    "cli.cache_bytes": "bytes", "cli.cache_write_s": "s",
    "cli.cache_misses": "count",
    "trace.spans": "count", "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

# the metrics that partition the traced time
PARTITION = sorted(set(SELF_TIME.values()) |
                   {"unitary_oracle.inside_s", "unitary_oracle.outside_s"})


@dataclass
class Span:
    sid: int
    parent: int       # -1 for a top-level span
    op: int           # sid of the top-level span this one belongs to
    name: str
    start: float
    end: float = 0.0
    tag: str = ""     # the operation's tag, e.g. "inside" for an oracle tuple
    phase: str = ""   # "setup", "measure" or "selftest"
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    size: int = 0     # what a light span keeps in place of its arguments
    ok: bool = True
    children: list = field(default_factory=list)

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    def __init__(self):
        self.spans = []
        self.tag = ""
        self.phase = "setup"
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if span_name is None:
                preset = args[1] if len(args) > 1 else kwargs.get("preset_tau")
                span_name = ("quantum_ring.solve" if preset is None
                             else "quantum_ring.restore")
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.sid if parent else -1,
                        parent.op if parent else len(self.spans), span_name,
                        time.perf_counter(), tag=self.tag, phase=self.phase)
            light = span_name in LIGHT_SPANS
            if light:
                size = LIGHT_SPANS[span_name]
                span.size = size(args, kwargs) if size else 0
            else:
                span.args, span.kwargs = args, kwargs
            self.spans.append(span)
            if parent:
                parent.children.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if not light:
                    span.result = result
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    def install(self):
        """Rebind every entry point in every loaded multcone module that
        holds it; entry points a version of the program lacks are skipped."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "multcone" or k.startswith("multcone."))]
        for modname, attr, name in ENTRY_POINTS:
            home = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(meth) if cls else None
                if original is not None:
                    setattr(cls, meth, self._wrap(original, name))
                    self._patched.append((cls, meth, original))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def in_phase(self, phase):
        return [s for s in self.spans if s.phase == phase]

    def dump(self, path):
        import json
        rows = [{"id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                 "start": s.start, "end": s.end, "self": s.self_time,
                 "tag": s.tag, "phase": s.phase, "ok": s.ok, "size": s.size}
                for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def _arg(span, index, name):
    """A call argument by position or keyword."""
    return span.args[index] if len(span.args) > index else span.kwargs[name]


def _has_descendant(span, name):
    return any(c.name == name or _has_descendant(c, name) for c in span.children)


def _table_size(table):
    return sum(len(poly) for poly in table.tau.values())


def layer_metrics(spans, cli_module):
    """Per-layer metrics from the recorded spans.  Times named *_s are self
    times, and the PARTITION metrics split the traced time between them;
    sizes count each distinct object (group, context, table, system) once."""
    m = {k: 0 for k in LAYER_METRICS}
    seen = set()
    inside_calls = inside_certified = 0

    def once(kind, obj):
        key = (kind, id(obj))
        if key in seen:
            return False
        seen.add(key)
        return True

    for s in spans:
        own = s.self_time
        hit = s.name == "cli.load_table" and any(
            c.name == "cli.cache_restore" and c.ok for c in s.children)
        if s.name == "unitary_oracle.search":
            m["unitary_oracle.inside_s" if s.tag == "inside"
              else "unitary_oracle.outside_s"] += own
        elif hit:
            m["cli.cache_read_s"] += own
        elif s.name == "cli.load_table":
            m["cli.self_s"] += own
        else:
            m[SELF_TIME[s.name]] += own
        if not s.ok:
            continue
        if s.name == "weyl.group":
            if once("group", s.result):
                m["weyl.W"] += len(s.result.elements)
        elif s.name == "weyl.cosets":
            if once("ctx", s.result):
                m["weyl.WP"] += len(s.result.wp)
        elif s.name in ("quantum_ring.solve", "quantum_ring.restore"):
            if once("table", s.result):
                m["quantum_ring.constants"] += _table_size(s.result)
        elif s.name == "eigencone.generate":
            rs, n = _arg(s, 0, "rs"), _arg(s, 1, "n")
            if ("system", rs.type_label, rs.rank, n) not in seen:
                seen.add(("system", rs.type_label, rs.rank, n))
                m["eigencone.ineqs"] += len(s.result)
        elif s.name == "eigencone.membership":
            m["eigencone.membership_calls"] += 1
            m["eigencone.slack_evals"] += len(_arg(s, 3, "inequalities"))
        elif s.name == "eigencone.irredundancy":
            for c in s.result.certificates:
                if not c.certified:
                    m["eigencone.cert_failed"] += 1
                elif c.method == "separating-point":
                    m["eigencone.cert_separating"] += 1
                elif c.method == "facet-witness":
                    m["eigencone.cert_facet"] += 1
        elif s.name == "eigencone.lp_build":
            m["eigencone.lps"] += 1
            m["eigencone.lp_rows_max"] = max(m["eigencone.lp_rows_max"],
                                             s.size)
        elif s.name == "eigencone.lp_solve":
            m["eigencone.lp_solves"] += 1
        elif s.name == "eigencone.pivot":
            m["eigencone.pivots"] += 1
        elif s.name == "unitary_oracle.search":
            m["unitary_oracle.calls"] += 1
            if s.tag == "inside":
                inside_calls += 1
                v = s.result
                inside_certified += bool(v.feasible and v.residual < 1e-8)
        elif hit:
            m["cli.cache_hits"] += 1
            rs, ip = _arg(s, 0, "rs"), _arg(s, 1, "ip")
            path = cli_module._cache_path(rs.type_label, rs.rank, int(ip))
            m["cli.cache_bytes"] += os.path.getsize(path)
        elif s.name == "cli.load_table":
            if _has_descendant(s, "quantum_ring.solve"):
                m["cli.cache_misses"] += 1
    if inside_calls:
        m["unitary_oracle.certified_ratio"] = inside_certified / inside_calls
    m["trace.spans"] = len(spans)
    return m
