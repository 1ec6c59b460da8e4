"""Command line front end.

Commands: tables, inequalities, member, verify, oracle-compare.  Output is
deterministic for a fixed argument vector: rerunning a command produces
byte-identical bytes on stdout.  Exit code 0 means success, 1 means a
mathematical verification failed, 2 means the invocation or an input file
was bad, or the library refused the request with a ValueError or
RuntimeError; either way stderr gets one "error: ..." line.  numpy is
loaded only by oracle-compare, so the other commands start without it.
"""

import argparse
import json
import os
import re
import sys
import tempfile

from . import eigencone
from .deformed_ring import render_table
from .eigencone import (generate_inequalities, generated_system,
                        inequality_to_obj, membership, irredundancy_check,
                        distinctness_check, points_from_obj)
from .quantum_ring import build_structure_table
from .root_system import build_root_system
from .weyl import check_group_order, minimal_reps

FORMAT_VERSION = 1


class InputError(Exception):
    """Bad invocation or input file; mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # a bad argument vector takes the same one-line exit-2 path as any
    # other bad input, instead of argparse's usage text and SystemExit
    def error(self, message):
        raise InputError(message)


# --- structure-table disk cache ---------------------------------------------

def cache_dir():
    env = os.environ.get("MULTCONE_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "multcone")


def _cache_path(type_label, rank, ip):
    name = f"table-{type_label}{rank}-P{ip}-v{FORMAT_VERSION}.json"
    return os.path.join(cache_dir(), name)


def _table_payload(table):
    ctx = table.ctx
    idx = {el: i for i, el in enumerate(ctx.wp)}
    tau = []
    for iu, u in enumerate(ctx.wp):
        for iv, v in enumerate(ctx.wp):
            poly = table.tau[(u, v)]
            terms = sorted([idx[y], list(d), c] for (y, d), c in poly.items())
            tau.append([iu, iv, terms])
    rs = ctx.rs
    return {
        "version": FORMAT_VERSION,
        "type": rs.type_label, "rank": rs.rank,
        "parabolic": sorted(ctx.s_p)[0],
        "classes": [list(el.word) for el in ctx.wp],
        "tau": tau,
    }


def _table_from_payload(payload, rs, ip):
    if (payload.get("version") != FORMAT_VERSION
            or payload.get("type") != rs.type_label
            or payload.get("rank") != rs.rank
            or payload.get("parabolic") != ip):
        raise ValueError("stale cache entry")
    ctx = minimal_reps(rs, {ip})
    by_word = {el.word: el for el in ctx.wp}
    order = [by_word[tuple(w)] for w in payload["classes"]]
    tau = {}
    for iu, iv, terms in payload["tau"]:
        tau[(order[iu], order[iv])] = {
            (order[iy], tuple(d)): int(c) for iy, d, c in terms}
    return build_structure_table(ctx, preset_tau=tau)


def load_table(rs, ip, use_cache=True):
    """The structure table for the maximal parabolic dropping alpha_ip:
    the in-process one if there is one, else the on-disk cache entry when
    enabled, else a fresh build.  The cache is purely an optimization: a
    missing or unreadable entry, or --no-cache, gives the same table by
    direct construction.  With the cache on, an entry is written whenever
    the file is missing and rewritten whenever reading it failed."""
    ip = int(ip)
    path = _cache_path(rs.type_label, rs.rank, ip)
    table = eigencone._TABLES.get((rs.type_label, rs.rank, ip))
    stored = use_cache and table is not None and os.path.exists(path)
    if table is None and use_cache:
        try:
            with open(path) as fh:
                table = _table_from_payload(json.load(fh), rs, ip)
            eigencone.register_table(table)
            stored = True
        except Exception:
            pass  # missing or unreadable: rebuilt below
    if table is None:
        table = eigencone.structure_table(rs, ip)
    if use_cache and not stored:
        _store_table(path, table)
    return table


def _store_table(path, table):
    # each writer gets its own temp file, so concurrent writers never
    # clobber each other's half-written entry
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir())
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(_table_payload(table), fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass


# --- shared helpers ---------------------------------------------------------

def _root_system(args):
    try:
        check_group_order(args.type, args.rank)
        return build_root_system(args.type, args.rank)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _need(args, field, flag):
    val = getattr(args, field)
    if val is None:
        raise InputError(f"{args.command} requires {flag}")
    return val


def _factors(args):
    n = _need(args, "n", "-n")
    if n < 2:
        raise InputError(f"-n must be at least 2, got {n}")
    return n


def _read_points(args, rs):
    path = _need(args, "point", "--point")
    try:
        with open(path, encoding="utf-8") as fh:
            # numbers stay the text they were written as, so every
            # coordinate reaches the exact parser and its digit bound
            obj = json.load(fh, parse_int=str, parse_float=str)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    try:
        return points_from_obj(rs, obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _prewarm(args, rs):
    # route every maximal parabolic through the disk cache before the
    # enumeration asks for it
    for ip in range(1, rs.rank + 1):
        load_table(rs, ip, not args.no_cache)


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- commands ---------------------------------------------------------------

def cmd_tables(args):
    rs = _root_system(args)
    ip = _need(args, "parabolic", "--parabolic")
    if not 1 <= ip <= rs.rank:
        raise InputError(f"no such node P{ip} for {rs.type_label}{rs.rank}")
    table = load_table(rs, ip, not args.no_cache)
    _emit(render_table(table, args.format))
    return 0


def cmd_inequalities(args):
    rs = _root_system(args)
    n = _factors(args)
    _prewarm(args, rs)
    ineqs = generate_inequalities(rs, n)
    if args.format == "json":
        obj = {"type": rs.type_label, "rank": rs.rank, "n": n,
               "count": len(ineqs),
               "inequalities": [inequality_to_obj(rs, n, q) for q in ineqs]}
        _emit(json.dumps(obj, indent=2))
    else:
        lines = [f"{len(ineqs)} inequalities for {rs.type_label}{rs.rank}, n={n}"]
        lines += [str(q) for q in ineqs]
        _emit("\n".join(lines))
    return 0


def cmd_member(args):
    rs = _root_system(args)
    n = _factors(args)
    points = _read_points(args, rs)
    if len(points) != n:
        raise InputError(f"point file holds {len(points)} points, expected {n}")
    _prewarm(args, rs)
    system = generated_system(rs, n)
    try:
        verdict = membership(rs, n, points, system)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.format == "json":
        obj = {"status": verdict.status,
               "violated": [inequality_to_obj(rs, n, q) for q in verdict.violated],
               "tight": [inequality_to_obj(rs, n, q) for q in verdict.tight]}
        _emit(json.dumps(obj, indent=2))
    else:
        lines = [verdict.status]
        lines += [f"violated: {q}" for q in verdict.violated]
        lines += [f"tight: {q}" for q in verdict.tight]
        _emit("\n".join(lines))
    return 0


def cmd_verify(args):
    rs = _root_system(args)
    n = _factors(args)
    if n < 3:
        # with two factors the region can have empty interior, and the
        # certificates mean nothing
        raise InputError(f"verify needs -n at least 3, got {n}")
    if args.workers is not None and args.workers < 1:
        raise InputError(f"--workers must be at least 1, got {args.workers}")
    _prewarm(args, rs)
    system = generated_system(rs, n)
    report = irredundancy_check(rs, n, system, workers=args.workers)
    distinct = distinctness_check(system.inequalities)
    good = sum(1 for c in report.certificates if c.certified)
    ok = report.all_certified and distinct.passed
    if args.format == "json":
        obj = {
            "irredundant": good, "total": len(system),
            "duplicate_pairs": [list(p) for p in distinct.pairs],
            "all_certified": report.all_certified,
            "certificates": [
                {"inequality": inequality_to_obj(rs, n, c.inequality),
                 "certified": c.certified, "method": c.method,
                 "optimum": str(c.optimum)}
                for c in report.certificates],
        }
        _emit(json.dumps(obj, indent=2))
    else:
        lines = [f"{good}/{len(system)} irredundant, "
                 f"{len(distinct.pairs)} duplicate pairs"]
        lines += [f"{c.inequality} :: {c.method}" for c in report.certificates]
        lines += [f"duplicate: #{i} ~ #{j}" for i, j in distinct.pairs]
        _emit("\n".join(lines))
    return 0 if ok else 1


def cmd_oracle_compare(args):
    from .unitary_oracle import (check_search_settings, numeric_membership,
                                 rep_for_root_system, su2_reference_membership)
    rs = _root_system(args)
    n = _factors(args)
    try:
        check_search_settings(args.tol, args.restarts)
    except ValueError as exc:
        raise InputError(f"--{exc}") from exc
    if args.seed < 0:
        # numpy refuses a negative seed, which would read as a bad tuple
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    try:
        rep = rep_for_root_system(rs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    points = _read_points(args, rs)
    if not points or len(points) % n:
        raise InputError(
            f"point file holds {len(points)} points, not a multiple of n={n}")
    _prewarm(args, rs)
    system = generated_system(rs, n)
    tuples = [tuple(points[k:k + n]) for k in range(0, len(points), n)]

    rows, concordant, false_feasible = [], 0, 0
    for idx, tup in enumerate(tuples):
        try:
            exact = membership(rs, n, tup, system).status
            verdict = numeric_membership(rep, tup, tol=args.tol,
                                         restarts=args.restarts,
                                         seed=args.seed + idx)
        except ValueError as exc:
            raise InputError(f"tuple {idx + 1}: {exc}") from exc
        row = {"exact": exact, "feasible": verdict.feasible,
               "residual": verdict.residual}
        if rep.label == "SU2":
            ts = [p.coords[0] / 2 for p in tup]
            row["reference"] = su2_reference_membership(ts)
        rows.append(row)
        if exact == "outside" and verdict.feasible:
            false_feasible += 1
        # the oracle is one-sided; on the boundary either answer is sound
        if exact == "boundary" or (exact == "inside") == verdict.feasible:
            concordant += 1

    if args.format == "json":
        obj = {"group": rep.label, "n": n, "total": len(rows),
               "concordant": concordant, "false_feasible": false_feasible,
               "rows": rows}
        _emit(json.dumps(obj, indent=2))
    else:
        lines = []
        for k, row in enumerate(rows):
            extra = ""
            if "reference" in row:
                extra = f" reference={'inside' if row['reference'] else 'outside'}"
            lines.append(
                f"#{k + 1}: exact={row['exact']} "
                f"numeric={'feasible' if row['feasible'] else 'no-witness'} "
                f"residual={row['residual']:.3e}{extra}")
        lines.append(f"{concordant}/{len(rows)} concordant, "
                     f"{false_feasible} false-feasible")
        _emit("\n".join(lines))
    return 1 if false_feasible else 0


_COMMANDS = {
    "tables": cmd_tables,
    "inequalities": cmd_inequalities,
    "member": cmd_member,
    "verify": cmd_verify,
    "oracle-compare": cmd_oracle_compare,
}


# --- argument handling ------------------------------------------------------

def _parse_type(type_arg, rank_arg):
    if not type_arg:
        raise InputError("--type is required")
    m = re.fullmatch(r"([A-Ga-g])(\d+)?", type_arg.strip())
    if not m:
        raise InputError(f"malformed type {type_arg!r}; expected e.g. B2 or G2")
    letter = m.group(1).upper()
    implied = int(m.group(2)) if m.group(2) else None
    if implied is None and rank_arg is None:
        raise InputError(f"type {letter!r} needs --rank")
    if implied is not None and rank_arg is not None and implied != rank_arg:
        raise InputError(f"--rank {rank_arg} contradicts --type {type_arg}")
    return letter, implied if implied is not None else rank_arg


def build_parser():
    parser = _Parser(
        prog="multcone",
        description="Deformed quantum multiplication tables and the "
                    "inequality system of the multiplicative eigenvalue "
                    "polytope.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    options = {
        "--parabolic": {"type": int,
                        "help": "maximal-parabolic node index, 1-based"},
        "-n": {"type": int, "dest": "n", "help": "number of tensor factors"},
        "--point": {"help": "JSON file with alcove points"},
        "--seed": {"type": int, "default": 0},
        "--restarts": {"type": int, "default": 200},
        "--tol": {"type": float, "default": 1e-8},
        "--workers": {"type": int},
    }
    # the options each command reads beyond --type, --rank, --format and
    # --no-cache; any other option is an argparse error, exit 2
    reads = {
        "tables": ("--parabolic",),
        "inequalities": ("-n",),
        "member": ("-n", "--point"),
        "verify": ("-n", "--workers"),
        "oracle-compare": ("-n", "--point", "--seed", "--restarts", "--tol"),
    }
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--type", required=True,
                       help="root-system label, e.g. A2, B2, G2")
        p.add_argument("--rank", type=int,
                       help="rank, when the type label does not carry it")
        for flag in reads[name]:
            p.add_argument(flag, **options[flag])
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--no-cache", action="store_true")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.type, args.rank = _parse_type(args.type, args.rank)
        return _COMMANDS[args.command](args)
    except (InputError, ValueError, RuntimeError) as exc:
        # a library refusal (say, an underdetermined quantum solve) is an
        # input the program cannot handle, not a failed check
        message = " ".join(str(exc).splitlines()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
