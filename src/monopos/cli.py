"""Command-line interface.

Subcommands: compute, family, verify, reduce, oracle, paths.  Exit codes:
0 success, 2 bad input, 3 a cap or limit refused the computation, 4 an
internal self-check failed.  Verification failures found by ``verify`` are
report data, not process errors; ``--strict`` upgrades them to exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bitset import mask_of, to_tuple
from .errors import EXIT_INTERNAL, InputError, InternalCheckError, MonoposError
from .graph import SOLVER_CAP, Graph, parse_edgelist
from .graph6 import emit_graph6, parse_graph6_lines
from .harness import available_checks, run_suite
from .paths import (IntervalCache, interior_vertices, monophonic_closure,
                    monophonic_hull, monophonic_interval)
from .reduction import reduce_clique_to_mp, verify_reduction
from .solvers import (CLOSED_FORMS, NODE_LIMIT, PARAMETERS, GraphSolver,
                      PathMode, brute_force_position, parameter_suite)
from . import families


def _read_graphs(path: str, input_format: str) -> list[Graph]:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    stripped = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not stripped:
        raise InputError(f"no graphs in {path!r}")
    if input_format == "auto":
        # an edge list may open with '#' comments; no graph6 line can (byte 35)
        head = next((ln for ln in stripped if not ln.startswith("#")), "").split()
        looks_edgelist = len(head) == 2 and all(tok.isdigit() for tok in head)
        input_format = "edges" if looks_edgelist else "g6"
    if input_format == "edges":
        return [parse_edgelist(text)]
    return parse_graph6_lines(text)


def _emit(doc, args, text_lines=None):
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines if text_lines is not None else [json.dumps(doc, sort_keys=True)]:
            print(line)


def _cmd_compute(args) -> int:
    graphs = _read_graphs(args.path, args.input)
    wanted = [p.strip() for p in args.param.split(",") if p.strip()]
    if not wanted:
        raise InputError(f"--param {args.param!r} names no parameter")
    for g in graphs:
        gid = emit_graph6(g)
        if wanted == ["all"]:
            suite = parameter_suite(g, node_limit=args.node_limit, cap=args.cap)
            reports = [suite.reports[k] for k in sorted(suite.reports)]
            skipped = suite.skipped
        else:
            solver = GraphSolver(g, node_limit=args.node_limit, lexmin=True, cap=args.cap)
            reports = [solver.report(name) for name in wanted]
            skipped = {}
        doc = {"graph6": gid, "n": g.n, "m": g.edge_count(),
               "parameters": [r.to_dict() for r in reports], "skipped": skipped}
        lines = [f"graph {gid} (n={g.n}, m={g.edge_count()})"]
        lines += [f"  {r.parameter} = {r.value}  witness {list(r.witness)}  [{r.method}]"
                  for r in reports]
        lines += [f"  {k}: skipped ({v})" for k, v in skipped.items()]
        _emit(doc, args, lines)
    return 0


def _cmd_family(args) -> int:
    spec = families.parse_family_spec(args.spec)
    if args.seed is not None:
        spec = families.FamilySpec(spec.family, spec.params, args.seed, spec.subspecs)
    g, meta = families.generate(spec)
    token = emit_graph6(g)
    meta = dict(meta)
    meta["graph6"] = token
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        stem = spec.text().replace(":", "_").replace(",", "-").replace("(", "").replace(")", "")
        (outdir / f"{stem}.g6").write_text(token + "\n")
        (outdir / f"{stem}.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        print(str(outdir / f"{stem}.g6"))
        return 0
    lines = [token] + [f"  {p['parameter']} = {p['value']}  ({p['rule']})"
                       for p in meta["predictions"]]
    _emit(meta, args, lines)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for cid, desc in available_checks():
            print(f"{cid}: {desc}")
        return 0
    selection = None if args.check in (None, "all") else [c.strip() for c in args.check.split(",")]
    seeds = []
    for token in args.seed.split(","):
        try:
            seeds.append(int(token))
        except ValueError:
            raise InputError(f"--seed: {token!r} is not an integer") from None
    report = run_suite(selection, seeds=tuple(seeds), profile=args.profile, jobs=args.jobs)
    doc = json.loads(report.to_json(stable=not args.timing))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for o in report.outcomes:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}[o.status]
            print(f"[{mark:>4}] {o.check_id}  ({o.instances} instances, {o.seconds:.1f}s)")
            for f in o.failures[:3]:
                print(f"       witness: {json.dumps(f, sort_keys=True)}")
        t = doc["totals"]
        print(f"{t['pass']}/{t['checks']} checks passed, {t['fail']} failed, "
              f"{t['skipped']} skipped")
    if args.strict and not report.passed:
        return 1
    return 0


def _cmd_reduce(args) -> int:
    graphs = _read_graphs(args.path, args.input)
    if len(graphs) != 1:
        raise InputError("reduce expects exactly one source graph")
    inst = reduce_clique_to_mp(graphs[0], args.k)
    doc = {"product": emit_graph6(inst.product), "k_prime": inst.k_prime}
    if not args.no_verify:
        doc.update(verify_reduction(inst, node_limit=args.node_limit, cap=args.cap).to_dict())
    lines = [doc["product"], f"k' = {doc['k_prime']}"]
    if not args.no_verify:
        lines.append(f"omega(source) = {doc['omega_source']}, mp(product) = {doc['mp_product']}")
        lines.append(f"identity holds: {doc['identity_holds']}, answers agree: {doc['answers_agree']}")
    _emit(doc, args, lines)
    if not args.no_verify and not (doc["identity_holds"] and doc["answers_agree"]):
        raise InternalCheckError("reduction verification failed")
    return 0


def _cmd_oracle(args) -> int:
    for g in _read_graphs(args.path, args.input):
        gid = emit_graph6(g)
        rep = brute_force_position(g, PathMode.from_string(args.mode), args.independent,
                                   args.cap)
        _emit({"graph6": gid, **rep.to_dict()}, args,
              [f"{rep.parameter}({gid}) = {rep.value}  witness {list(rep.witness)} [oracle]"])
    return 0


def _cmd_paths(args) -> int:
    graphs = _read_graphs(args.path, args.input)
    if len(graphs) != 1:
        raise InputError("paths expects exactly one graph")
    g = graphs[0]
    for flag in ("interval", "closure", "hull", "interior"):
        for v in getattr(args, flag) or ():
            if not 0 <= v < g.n:
                raise InputError(f"--{flag}: vertex {v} is not in 0..{g.n - 1}")
    cache = IntervalCache(g)
    doc: dict = {"graph6": emit_graph6(g)}
    lines: list[str] = []
    if args.interval:
        u, v = args.interval
        got = sorted(to_tuple(monophonic_interval(g, u, v, cache)))
        doc["interval"] = {"u": u, "v": v, "vertices": got}
        lines.append(f"interval({u},{v}) = {got}")
    if args.closure:
        m = mask_of(args.closure)
        got = sorted(to_tuple(monophonic_closure(g, m, cache)))
        doc["closure"] = {"set": args.closure, "vertices": got}
        lines.append(f"closure({args.closure}) = {got}")
    if args.hull:
        m = mask_of(args.hull)
        hull, rounds = monophonic_hull(g, m, cache)
        doc["hull"] = {"set": args.hull, "vertices": sorted(to_tuple(hull)),
                       "iterations": rounds}
        lines.append(f"hull({args.hull}) = {sorted(to_tuple(hull))} "
                     f"after {rounds} closure rounds")
    if args.interior:
        m = mask_of(args.interior)
        got = sorted(to_tuple(interior_vertices(g, m, cache)))
        doc["interior"] = {"set": args.interior, "vertices": got}
        lines.append(f"interior({args.interior}) = {got}")
    if len(doc) == 1:
        raise InputError("paths: choose at least one of --interval/--closure/--hull/--interior")
    _emit(doc, args, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="monopos",
                                 description="Exact monophonic/general position toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--input", choices=("auto", "g6", "edges"), default="auto")

    def cap(p):
        p.add_argument("--cap", type=int, default=SOLVER_CAP,
                       help=f"order cap for the exact solvers (default {SOLVER_CAP})")

    def node_limit(p):
        p.add_argument("--node-limit", type=int, default=NODE_LIMIT,
                       help=f"branch-and-bound node limit (default {NODE_LIMIT})")

    p = sub.add_parser("compute", help="exact parameters of input graphs")
    p.add_argument("path", help="graph6 or edge-list file, - for stdin")
    p.add_argument("--param", default="mp",
                   help=f"comma list from {', '.join([*PARAMETERS, *CLOSED_FORMS])}, or 'all'")
    common(p)
    cap(p)
    node_limit(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("family", help="generate a named family instance with predictions")
    p.add_argument("spec", help="e.g. half_wheel:4, G_abl:3,5,2, corona_of:(cycle:5),(complete:1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for .g6 + .json sidecar")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--check", default="all", help="comma list of check ids, or 'all'")
    p.add_argument("--seed", default="1", help="comma list of integer seeds")
    p.add_argument("--profile", choices=("default", "quick"), default="default")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--list", action="store_true", help="list available checks")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--timing", action="store_true", help="include timing fields in JSON")
    p.add_argument("--strict", action="store_true", help="exit 1 when any check fails")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reduce", help="clique-to-position reduction instance")
    p.add_argument("path")
    p.add_argument("k", type=int)
    p.add_argument("--no-verify", action="store_true")
    common(p)
    cap(p)
    node_limit(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force position number (small graphs)")
    p.add_argument("path")
    common(p)
    cap(p)
    p.add_argument("--mode", choices=("mono", "geo", "geo2"), default="mono")
    p.add_argument("--independent", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("paths", help="intervals, closures, hulls, interior vertices")
    p.add_argument("path")
    p.add_argument("--interval", nargs=2, type=int, metavar=("U", "V"))
    for flag in ("--closure", "--hull", "--interior"):
        p.add_argument(flag, type=lambda s: sorted({int(x) for x in s.split(",")}))
    common(p)
    p.set_defaults(fn=_cmd_paths)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MonoposError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
