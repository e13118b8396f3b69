"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

import json
import random

import corpus
import run
import spans


def test_corpus_is_byte_identical_for_its_seed():
    seed = json.loads((corpus.CORPUS / "mono-rows.json").read_text())["seed"]
    files = corpus.generate_corpus(seed)
    assert sorted(files) == sorted(p.name for p in corpus.CORPUS.iterdir()
                                   if not p.name.endswith(".expected.json"))
    for name, text in files.items():
        assert (corpus.CORPUS / name).read_text() == text, name
    assert corpus.generate_corpus(seed + 1) != files


def _traced_counts(workload: str, picks: list[int]) -> list[dict]:
    doc, graphs, _ = corpus.load_workload(run.ROOT, workload)
    doc = {**doc, "requests": [doc["requests"][i] for i in picks]}
    graphs = [graphs[i] for i in picks]
    tracer = spans.Tracer()
    passes = run.run_passes(run.make_executor(workload, doc, graphs), len(picks),
                            random.Random(0), 0.0, 4, tracer)
    pairs = list(zip(passes[0::2], passes[1::2]))
    for a, b in pairs:
        assert sorted(a["traced"] | b["traced"]) == list(range(len(picks)))
        assert not a["traced"] & b["traced"]
    return [tracer.totals(a["spans"][0], b["spans"][1])[1] for a, b in pairs]


def test_traced_counts_repeat_exactly_across_runs():
    for workload, picks in (("mono-rows", [4, 10]), ("geo-search", [0, 4, 14]),
                            ("suite-small", [0, 2, 9])):
        first = _traced_counts(workload, picks)
        second = _traced_counts(workload, picks)
        assert first[0] == first[1] == second[0] == second[1], workload
        assert first[0]["request.calls"] == len(picks)
    mono = _traced_counts("mono-rows", [4])[0]
    geo = _traced_counts("geo-search", [0, 4])[0]
    assert mono["paths.interval.expansions"] > 0
    assert "paths.interval.expansions" not in geo and geo["solvers.lexmin.nodes"] > 0


def test_benchmark_json_lists_what_the_runner_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units(corpus.check_ids())
    assert [w["name"] for w in doc["workloads"]] == list(corpus.WORKLOADS)
