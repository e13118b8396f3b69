"""monopos benchmark runner: one workload, one process, closed loop.

    python3 perfbench/run.py --workload mono-rows --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``monopos`` is imported from
``src/`` there and nowhere else.  One client sends the requests of the
workload one at a time, each as soon as the previous one is answered, in an
order shuffled by ``--seed``.  A pass sends every request once; passes
repeat until ``--seconds`` is used up (at least ``MIN_PASSES``).

``--trace 0`` prints the end-to-end metrics; two set-up probes run before
every pass and after the last, so ``setup_s`` samples the same stretch of
time as ``solve_s``.  Its times are scaled to a reference host by reference
work timed next to them (``reference_work``, ``REF_START``), because the
speed of a shared host drifts by a third or more for minutes at a time.
``--trace 1`` traces every other request, alternating from pass to pass,
and prints the per-layer metrics, including the tracing overhead (traced
over untraced time of the same requests).  Either way
every answer is checked after the timed region, the last line of stdout is
one JSON object
``{"correct", "attempted", "failed", "metrics"}``, a human-readable table
goes to stderr, and the full report (with an environment block) and the
spans are written under ``.bench_out/``.  Any failed parameter makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
TRACE_MIN_PASSES = 4
TAIL_BEYOND = 10
PROBES_PER_GAP = 2
#: Seconds the reference work takes on the reference host (the 2-vCPU Xeon
#: of BASELINE.md when it runs fastest): ``reference_work`` in process, and
#: a fresh Python process that imports numpy.  Reported times are scaled
#: to that host.
REF_SECONDS = 0.0015
REF_START_SECONDS = 0.09
REF_START = ["-c", "import sys, time, numpy; print(time.time() - float(sys.argv[1]))"]
_REF_TABLE = tuple((k * 2654435761) & 0xFFFF for k in range(1024))

END_TO_END = {"setup_s": "s", "solve_s": "s", "req_ms_p50": "ms", "req_ms_tail": "ms",
              "peak_rss_mb": "MB"}

#: Per-layer time metric (ms of self time per traced pass) -> span name.
LAYER_MS = {
    "paths.interval_ms": "paths.interval",
    "solvers.index_ms.mono": "solvers.index.mono",
    "solvers.index_ms.geo": "solvers.index.geo",
    "solvers.index_ms.geo2": "solvers.index.geo2",
    "invariants.distance_ms": "invariants.distance",
    "solvers.position_ms": "solvers.position",
    "solvers.search_ms": "solvers.search",
    "solvers.lexmin_ms": "solvers.lexmin",
    "solvers.hull_ms": "solvers.hull",
    "invariants.clique_ms": "invariants.clique",
    "invariants.alphaomega_ms": "invariants.alphaomega",
    "invariants.diss_ms": "invariants.diss",
    "paths.longest_ms": "paths.longest",
    "paths.partition_ms": "paths.partition",
    "oracle.brute_force_ms": "oracle.brute_force",
    "oracle.simple_path_ms": "oracle.simple_path",
    "oracle.hull_ms": "oracle.hull",
    "reduction.verify_ms": "reduction.verify",
    "graph6.decode_in_requests_ms": "graph6.decode",
    "request.self_ms": "request",
}
#: Per-layer count metric (per traced pass) -> summed span count.
LAYER_COUNTS = {
    "paths.interval_expansions": "paths.interval.expansions",
    "paths.interval_rows": "paths.interval.rows",
    "solvers.search_nodes": "solvers.search.nodes",
    "solvers.lexmin_nodes": "solvers.lexmin.nodes",
    "solvers.hull_sets_tested": "solvers.hull.sets_tested",
}


def per_layer_units(check_ids: list[str]) -> dict[str, str]:
    units = {"graph6.decode_ms": "ms"}
    units.update({k: "ms" for k in LAYER_MS})
    units.update({k: "count" for k in LAYER_COUNTS})
    units.update({"paths.expansions_per_s": "1/s", "solvers.lexmin_share": "share",
                  "trace.solve_s": "s", "trace.untraced_solve_s": "s",
                  "trace.overhead_share": "share", "trace.coverage": "share",
                  "trace.spans": "count"})
    units.update({f"harness.check_s.{cid}": "s" for cid in check_ids})
    return units


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_monopos():
    """Import monopos from ROOT/src only; None when the checkout lacks it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import monopos
    except ImportError:
        return None
    if not Path(monopos.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return monopos


def probe_setup(workload: str, out: list[float], ref_out: list[float]) -> None:
    """Append PROBES_PER_GAP set-up times of fresh processes to ``out``:
    from just before the spawn until the child has imported monopos,
    decoded the corpus and loaded the expected values.  The child reports
    the time itself, so waiting for its exit does not count.  After each,
    append to ``ref_out`` the same time for a process that imports numpy
    alone, a gauge of how fast this host starts processes just then."""
    for _ in range(PROBES_PER_GAP):
        for args, dest in (([str(HERE / "setup_probe.py"), workload], out), (REF_START, ref_out)):
            cmd = [sys.executable, *args, repr(time.time())]
            done = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
            dest.append(float(done.stdout))


def environment(loadavg: tuple[float, float, float]) -> dict:
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # Only a repository rooted at this checkout names its commit.
    if len(out) == 2 and Path(out[0]).resolve() == ROOT.resolve():
        commit = out[1]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": commit,
            "loadavg_start": list(loadavg)}


def reference_work() -> int:
    """A fixed piece of pure-Python work: integer multiply, mask and bit
    operations and table reads, the staple of the solvers' inner loops.
    It shares no code with monopos and allocates no container, so it runs
    no garbage collection, and only the speed of the host moves its time."""
    x, acc, table = 0x5DEECE66D, 0, _REF_TABLE
    for _ in range(6000):
        x = (x * 25214903917 + 11) & 0xFFFFFFFFFFFF
        m = x >> 16
        acc ^= m & -m
        acc += table[m & 1023]
    return acc


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def make_executor(workload: str, doc: dict, graphs):
    """Function request index -> canonical answer (compared across passes)."""
    from monopos.solvers import GraphSolver, parameter_suite

    reqs = doc["requests"]
    if workload == "verify":
        from monopos.harness import run_suite

        seeds, profile = tuple(doc["harness_seeds"]), doc["profile"]
        return lambda i: run_suite([reqs[i]["check"]], seeds=seeds, profile=profile,
                                   jobs=1).outcomes[0]
    if workload == "suite-small":
        def suite(i):
            res = parameter_suite(graphs[i])
            return ({k: (r.value, r.witness) for k, r in res.reports.items()},
                    tuple(sorted(res.skipped)))
        return suite
    lexmin = workload == "geo-search"

    def solve(i):
        s = GraphSolver(graphs[i], lexmin=lexmin)
        return {p: (s.report(p).value, s.report(p).witness) for p in reqs[i]["params"]}, ()
    return solve


def stable(answer):
    """Answer with timings removed, for comparing passes."""
    return answer.stable_dict() if hasattr(answer, "stable_dict") else answer


def run_passes(execute, n_req: int, rng: random.Random, seconds: float, min_passes: int,
               tracer=None, before_pass=None, reference=None):
    """Closed loop over shuffled passes.  Returns a list of passes, each
    {"wall", "lat_ms", "ref_s", "answers", "errors", "traced", "spans"}.

    With a tracer, request i is traced in pass k when i + k is odd, so two
    consecutive passes trace every request once and run it once untraced,
    seconds apart, under the same drift of the machine.  The layer wrappers
    are installed for each traced request alone, outside its latency.
    ``before_pass`` is called outside the pass time before each pass.
    ``reference`` is timed before each request, into "ref_s", outside
    the request's latency and the pass time.
    """
    from monopos.errors import MonoposError

    passes = []
    start = time.perf_counter()
    while True:
        if before_pass:
            before_pass()
        order = list(range(n_req))
        rng.shuffle(order)
        answers, errors, lat, ref_s = {}, {}, [], []
        traced = {i for i in order if tracer is not None and (i + len(passes)) % 2}
        first_span = len(tracer.spans) if tracer else 0
        t_pass = time.perf_counter()
        for i in order:
            if reference:
                t0 = time.perf_counter()
                reference()
                ref_s.append(time.perf_counter() - t0)
            remove = None
            if i in traced:
                remove = spans.instrument(tracer)
                tracer.request = i
            t0 = time.perf_counter()
            if remove:
                sid = tracer.begin("request")
            try:
                answers[i] = execute(i)
            except MonoposError as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
            finally:
                if remove:
                    tracer.end(sid)
            lat.append((i, (time.perf_counter() - t0) * 1000.0))
            if remove:
                remove()
        wall = time.perf_counter() - t_pass - sum(ref_s)
        passes.append({"wall": wall, "lat_ms": lat, "ref_s": ref_s, "answers": answers,
                       "errors": errors, "traced": traced,
                       "spans": (first_span, len(tracer.spans) if tracer else 0)})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def score(workload: str, doc: dict, graphs, expected: dict, passes: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the parameters of every pass.

    The gate checks the answers of the first pass; every later pass must
    repeat them exactly.  A parameter fails when its request raised, when
    its answer differs from the first pass, or when the gate rejected it.
    """
    reqs = doc["requests"]
    first = passes[0]
    bad = gate.check_first_pass(workload, doc, graphs, expected, first["answers"])
    messages = [f"request {i} ({gate.label(reqs[i])}) {name}: {why}"
                for i in sorted(bad) for name, why in bad[i].items()]
    attempted = failed = 0
    for k, p in enumerate(passes):
        for i, req in enumerate(reqs):
            names = gate.param_names(workload, req, expected, i)
            attempted += len(names)
            if i in p["errors"]:
                why = p["errors"][i]
            elif i in first["errors"] or stable(p["answers"][i]) != stable(first["answers"][i]):
                why = "answer differs from the first pass"
            else:
                failed += len(bad.get(i, {}))
                continue
            failed += len(names)
            messages.append(f"pass {k} request {i} ({gate.label(req)}): {why}")
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def request_ms(passes: list) -> dict[int, list[float]]:
    """Request index -> its latencies (ms), one per pass."""
    out: dict[int, list[float]] = {}
    for p in passes:
        for i, ms in p["lat_ms"]:
            out.setdefault(i, []).append(ms)
    return out


def latency_metrics(passes: list, n_req: int) -> tuple[dict, dict]:
    """Median and tail request latency.

    The median is taken over the requests of the workload, each at its
    median latency over the passes.  Pooling every sample instead puts the
    median between the samples of two requests when their count is even,
    where it jumps between them from run to run.

    The tail is taken over every sample of every pass, at the percentile
    that leaves TAIL_BEYOND samples beyond it in MIN_PASSES passes.  It is
    fixed by the workload, so a faster program that fits more passes into
    the run is measured at the same percentile.
    """
    lat = sorted(ms for p in passes for _, ms in p["lat_ms"])
    q = 1.0 - TAIL_BEYOND / (MIN_PASSES * n_req)
    rank = max(1, round(q * len(lat)))
    info = {"samples": len(lat), "tail_percentile": round(100.0 * q, 2),
            "tail_requests_beyond": len(lat) - rank}
    p50 = statistics.median(statistics.median(v) for v in request_ms(passes).values())
    return {"req_ms_p50": p50, "req_ms_tail": lat[rank - 1]}, info


def traced_seconds(pair: tuple[dict, dict]) -> tuple[float, float]:
    """(traced, untraced) request seconds over two consecutive passes;
    each side covers every request once."""
    sums = [0.0, 0.0]
    for p in pair:
        for i, ms in p["lat_ms"]:
            sums[i not in p["traced"]] += ms / 1000.0
    return sums[0], sums[1]


def layer_metrics(tracer, pair: tuple[dict, dict], check_ids: list[str]) -> dict:
    """Per-layer values over the traced requests of two consecutive passes."""
    self_s, counts = tracer.totals(pair[0]["spans"][0], pair[1]["spans"][1])
    out = {name: self_s.get(span, 0.0) * 1000.0 for name, span in LAYER_MS.items()}
    out.update({name: counts.get(key, 0) for name, key in LAYER_COUNTS.items()})
    secs = self_s.get("paths.interval", 0.0)
    out["paths.expansions_per_s"] = out["paths.interval_expansions"] / secs if secs else 0.0
    nodes = out["solvers.search_nodes"] + out["solvers.lexmin_nodes"]
    out["solvers.lexmin_share"] = out["solvers.lexmin_nodes"] / nodes if nodes else 0.0
    traced, untraced = traced_seconds(pair)
    out["trace.solve_s"], out["trace.untraced_solve_s"] = traced, untraced
    out["trace.overhead_share"] = traced / untraced - 1.0
    out["trace.coverage"] = 1.0 - self_s.get("request", 0.0) / traced
    out["trace.spans"] = pair[1]["spans"][1] - pair[0]["spans"][0]
    secs_by_check = {p["answers"][i].check_id: p["answers"][i].seconds
                     for p in pair for i in p["traced"] if hasattr(p["answers"].get(i), "check_id")}
    out.update({f"harness.check_s.{cid}": secs_by_check.get(cid, 0.0) for cid in check_ids})
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="monopos benchmark (one workload per process)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    loadavg = os.getloadavg()
    if import_monopos() is None:
        print(f"monopos not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(corpus.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(loadavg)

    doc, graphs, expected = corpus.load_workload(ROOT, args.workload)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        # Decode once more under the tracer for graph6.decode_ms.  The first
        # load has imported every module the workload uses, so the wrappers
        # reach, and are later removed from, every binding.
        uninstrument = spans.instrument(tracer)
        corpus.load_workload(ROOT, args.workload)
        uninstrument()
        decode_ms = tracer.totals()[0].get("graph6.decode", 0.0) * 1000.0
    check_ids = corpus.check_ids()

    execute = make_executor(args.workload, doc, graphs)
    rng = random.Random(args.seed)
    n_req = len(doc["requests"])

    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": env, "requests_per_pass": n_req}
    setup: list[float] = []
    setup_ref: list[float] = []
    probe = None if args.trace else (lambda: probe_setup(args.workload, setup, setup_ref))
    # No warm-up pass: the first pass is no slower than the others beyond
    # run-to-run noise (BASELINE.md), and a warm-up would add a whole pass
    # to every run.  The gate checks the first pass's answers.
    if not args.trace:
        passes = run_passes(execute, n_req, rng, args.seconds, MIN_PASSES, before_pass=probe,
                            reference=reference_work)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probe()
        report["setup_samples_s"] = setup
        report["setup_reference_s"] = setup_ref
        # The host's speed drifts by a third over minutes, and its speed at
        # starting processes by up to half (BASELINE.md), so times are
        # scaled to the reference host: a pass by the median time of the
        # reference work run between its requests, set-up by the median of
        # the numpy-only processes started next to the set-up probes.
        slowdown = [statistics.median(p["ref_s"]) / REF_SECONDS for p in passes]
        run_slowdown = statistics.median(t for p in passes for t in p["ref_s"]) / REF_SECONDS
        start_slowdown = statistics.median(setup_ref) / REF_START_SECONDS
        scaled = [{**p, "wall": p["wall"] / f, "lat_ms": [(i, ms / f) for i, ms in p["lat_ms"]]}
                  for p, f in zip(passes, slowdown)]
        lat, lat_info = latency_metrics(scaled, n_req)
        values = {"setup_s": statistics.median(setup) / start_slowdown,
                  "solve_s": statistics.median(p["wall"] for p in scaled),
                  **lat, "peak_rss_mb": peak_kb / 1024.0}
        units = END_TO_END
        report["latency"] = lat_info
        report["host_slowdown"] = {"run": run_slowdown, "passes": slowdown,
                                   "process_start": start_slowdown}
        unscaled = {"setup_s": statistics.median(setup),
                    "solve_s": statistics.median(p["wall"] for p in passes),
                    **latency_metrics(passes, n_req)[0]}
        report["unscaled"] = unscaled
        problems: list[str] = []
    else:
        passes = run_passes(execute, n_req, rng, args.seconds, TRACE_MIN_PASSES, tracer)
        pairs = list(zip(passes[0::2], passes[1::2]))
        per_pair = [layer_metrics(tracer, pair, check_ids) for pair in pairs]
        values = {k: statistics.median(m[k] for m in per_pair) for k in per_pair[0]}
        values["graph6.decode_ms"] = decode_ms
        units = per_layer_units(check_ids)
        sigs = [tracer.totals(a["spans"][0], b["spans"][1])[1] for a, b in pairs]
        problems = [f"pass pair {k} counts differ from pass pair 0"
                    for k, s in enumerate(sigs) if s != sigs[0]]
        report["layer_counts"] = sigs[0]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted, failed, messages = score(args.workload, doc, graphs, expected, passes)
    problems += messages
    report["request_ms"] = {f"{i} {gate.label(doc['requests'][i])}": v
                            for i, v in sorted(request_ms(passes).items())}
    report.update({"passes": len(passes), "pass_walls_s": [p["wall"] for p in passes],
                   "attempted": attempted, "failed": failed,
                   "failed_share": failed / attempted, "problems": problems[:200],
                   "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}})
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} requests/pass={n_req}"
          f" failed_share={failed}/{attempted}", file=sys.stderr)
    print(f"# env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']},"
          f" commit {env['git_commit'][:12]}, load average at start {env['loadavg_start']}",
          file=sys.stderr)
    if not args.trace:
        print(f"#   latency over {lat_info['samples']} requests; tail = p{lat_info['tail_percentile']}"
              f" ({lat_info['tail_requests_beyond']} requests beyond it)", file=sys.stderr)
        print(f"#   times scaled to the reference host; this host ran {run_slowdown:.3f} times"
              f" slower and started processes {start_slowdown:.3f} times slower"
              f" (unscaled in brackets)", file=sys.stderr)
    for k in units:
        raw = f" ({unscaled[k]:.6g})" if not args.trace and k in unscaled else ""
        print(f"  {k:44s} {values[k]:14.6g} {units[k]}{raw}", file=sys.stderr)
    if not args.trace:
        print(f"  {'failed_share':44s} {failed / attempted:14.6g} share", file=sys.stderr)
    for msg in problems[:20]:
        print(f"  FAIL {msg}", file=sys.stderr)

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
