"""Corpus generator and loader for the monopos benchmark.

Every workload is a list of requests.  A graph request is a family spec
plus a parameter list; the spec names a generator and its seed, and the
decoded graph6 line is all the solvers ever see.  A ``verify`` request is
one harness check id.

The checked-in files under ``perfbench/corpus`` come from::

    python3 perfbench/corpus.py --seed 1            # graph6 + request lists
    python3 perfbench/corpus.py --seed 1 --expected # plus expected values (minutes)

Regenerating with the same seed must reproduce the corpus byte for byte.
Expected values are computed once, at the commit that defined the
benchmark, and cross-checked against ``families.predict_for_spec`` and the
block-graph hull rule; later runs compare against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"

WORKLOADS = ("mono-rows", "geo-search", "suite-small", "verify")

#: The verify workload runs every harness check under these fixed settings.
VERIFY_SEEDS = (1,)
VERIFY_PROFILE = "default"


# ---------------------------------------------------------------------------
# request recipes (one function per workload, all randomness from rng)
# ---------------------------------------------------------------------------


def _mono_rows(rng: random.Random) -> list[tuple[str, list[str]]]:
    # Sparse graphs where interval rows cost 0.1-1 s each.  Half of the
    # random graphs ask for hm alone, so a hull change shows apart from mp.
    full = ["mp", "imp", "hm"]
    reqs = [("hypercube:5", full), ("grid:6,6", full),
            (f"cubic:40:seed={rng.randrange(10**6)}", full),
            (f"gnp:40,20:seed={rng.randrange(10**6)}", full)]
    for i in range(10):
        n = rng.randint(33, 36)
        pct = rng.choice((10, 12, 15))
        reqs.append((f"gnp:{n},{pct}:seed={rng.randrange(10**6)}", full if i % 2 else ["hm"]))
    return reqs


def _geo_search(rng: random.Random) -> list[tuple[str, list[str]]]:
    # Geodesic branch and bound with lexmin witnesses.  Parameter lists
    # keep every request under the default node limit (gp and gp2 exceed
    # it on the 7x7 and 8x8 grids, gp2 on Q6).  A pass stays near 3 s and
    # no request near a third of it, so a run holds enough passes for
    # steady medians: gp on Q6 and G(48, 0.1) would add 0.3 s and 1-1.6 s.
    reqs = [("grid:7,7", ["igp"]), ("grid:8,8", ["igp"]), ("hypercube:6", ["igp"])]
    for _ in range(3):
        reqs.append((f"random_tree:{rng.randint(36, 40)}:seed={rng.randrange(10**6)}",
                     ["gp", "igp", "gp2"]))
    for _ in range(3):
        reqs.append((f"random_block:{rng.randint(32, 38)}:seed={rng.randrange(10**6)}",
                     ["gp", "igp", "gp2"]))
    for _ in range(6):
        reqs.append((f"random_split:{rng.randint(30, 38)}:seed={rng.randrange(10**6)}",
                     ["gp", "igp", "gp2"]))
    return reqs


def _suite_small(rng: random.Random) -> list[tuple[str, list[str]]]:
    # parameter_suite on connected graphs small enough for every default
    # cap (the path-partition DP caps at 16 vertices).
    reqs = [("petersen", ["all"]), ("heawood", ["all"])]
    for _ in range(10):
        n = rng.randint(10, 16)
        reqs.append((f"gnp:{n},{rng.choice((25, 35, 45))}:seed={rng.randrange(10**6)}", ["all"]))
    for family in ("random_split", "random_block", "random_tree"):
        for _ in range(7):
            reqs.append((f"{family}:{rng.randint(10, 16)}:seed={rng.randrange(10**6)}", ["all"]))
    for _ in range(7):
        a = rng.randint(4, 8)
        b = rng.randint(5, 15 - a)
        reqs.append((f"random_bipartite:{a},{b}:seed={rng.randrange(10**6)}", ["all"]))
    return reqs


RECIPES = {"mono-rows": _mono_rows, "geo-search": _geo_search, "suite-small": _suite_small}


# ---------------------------------------------------------------------------
# specs to graphs
# ---------------------------------------------------------------------------


def build_graph(spec_text: str):
    """The graph named by a spec: a monopos family, or one of the two
    benchmark-only kinds ``gnp:n,percent`` and ``cubic:n``."""
    from monopos import families

    spec = families.parse_family_spec(spec_text)
    rng = random.Random(spec.seed if spec.seed is not None else 0)
    if spec.family == "gnp":
        n, pct = spec.params
        return families.random_connected_graph(n, rng, pct / 100)
    if spec.family == "cubic":
        (n,) = spec.params
        return families.random_cubic_graph(n, rng)
    return families.generate(spec)[0]


def generate_corpus(seed: int) -> dict[str, str]:
    """File name -> text for every corpus file, from one generator seed."""
    from monopos import emit_graph6
    from monopos.harness import available_checks

    files: dict[str, str] = {}
    for k, workload in enumerate(WORKLOADS):
        rng = random.Random(seed * 1000 + k)
        if workload == "verify":
            doc = {"workload": workload, "seed": seed, "harness_seeds": list(VERIFY_SEEDS),
                   "profile": VERIFY_PROFILE,
                   "requests": [{"check": cid} for cid, _ in available_checks()]}
        else:
            reqs = RECIPES[workload](rng)
            doc = {"workload": workload, "seed": seed,
                   "requests": [{"spec": s, "params": p} for s, p in reqs]}
            files[f"{workload}.g6"] = "".join(emit_graph6(build_graph(s)) + "\n" for s, _ in reqs)
        files[f"{workload}.json"] = json.dumps(doc, indent=1) + "\n"
    return files


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_workload(root: Path, workload: str):
    """Decode one workload: (requests, graphs, expected).

    ``graphs[i]`` is the decoded graph of request i (empty for verify).
    """
    from monopos import parse_graph6

    if workload == "verify":
        import monopos.harness  # noqa: F401  (the verify requests need it)
    base = root / "perfbench" / "corpus"
    doc = json.loads((base / f"{workload}.json").read_text())
    graphs = []
    if workload != "verify":
        graphs = [parse_graph6(line) for line in (base / f"{workload}.g6").read_text().splitlines()]
        if len(graphs) != len(doc["requests"]):
            raise ValueError(f"{workload}: {len(graphs)} graphs for {len(doc['requests'])} requests")
    expected = json.loads((base / f"{workload}.expected.json").read_text())
    return doc, graphs, expected


def check_ids() -> list[str]:
    """The harness check ids of the verify workload, in corpus order."""
    return [r["check"] for r in json.loads((CORPUS / "verify.json").read_text())["requests"]]


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------


def verify_digest(stable_doc: dict) -> str:
    return hashlib.sha256(json.dumps(stable_doc, sort_keys=True).encode()).hexdigest()


def compute_expected(workload: str, doc: dict, graphs) -> dict:
    """Expected values, computed by the solvers and checked against every
    closed form that applies."""
    from monopos.solvers import GraphSolver, parameter_suite
    from monopos.harness import run_suite

    if workload == "verify":
        seeds = tuple(doc["harness_seeds"])
        report = run_suite(None, seeds=seeds, profile=doc["profile"], jobs=1)
        return {"report_digest": verify_digest(report.stable_dict()),
                "checks": {o.check_id: verify_digest(o.stable_dict()) for o in report.outcomes}}
    out = []
    for req, g in zip(doc["requests"], graphs):
        if req["params"] == ["all"]:
            res = parameter_suite(g)
            if res.skipped:
                raise SystemExit(f"{req['spec']}: skipped {sorted(res.skipped)}")
            values = {k: r.value for k, r in sorted(res.reports.items())}
        else:
            s = GraphSolver(g, lexmin=True)
            values = {p: s.value(p) for p in req["params"]}
        for name, want in closed_forms(req["spec"], g).items():
            if name in values and values[name] != want:
                raise SystemExit(f"{req['spec']}: {name}={values[name]} but closed form says {want}")
        out.append(values)
        print(f"  {req['spec']}: {values}", file=sys.stderr)
    return {"values": out}


def closed_forms(spec_text: str, g) -> dict[str, int]:
    """Closed-form values for a corpus graph: ``predict_for_spec``, plus
    hm = number of simplicial vertices on connected block graphs (on trees
    that is the leaf count)."""
    from monopos import families
    from monopos.invariants import is_block_graph, simplicial_vertices

    spec = families.parse_family_spec(spec_text)
    forms = {pv.parameter: pv.value for pv in families.predict_for_spec(spec, g)}
    if g.n >= 2 and g.is_connected() and is_block_graph(g):
        forms["hm"] = simplicial_vertices(g).bit_count()
    return forms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--expected", action="store_true", help="also recompute expected values")
    args = ap.parse_args(argv)
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    CORPUS.mkdir(exist_ok=True)
    for name, text in generate_corpus(args.seed).items():
        (CORPUS / name).write_text(text)
    if args.expected:
        for workload in WORKLOADS:
            print(f"{workload}: computing expected values", file=sys.stderr)
            doc = json.loads((CORPUS / f"{workload}.json").read_text())
            graphs = []
            if workload != "verify":
                from monopos import parse_graph6
                graphs = [parse_graph6(x) for x in (CORPUS / f"{workload}.g6").read_text().splitlines()]
            exp = compute_expected(workload, doc, graphs)
            (CORPUS / f"{workload}.expected.json").write_text(json.dumps(exp, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
