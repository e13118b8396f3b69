import pytest
from hypothesis import given, settings

from conftest import graphs
from monopos.bitset import bit
from monopos.errors import CapExceeded, Graph6Error
from monopos.graph import MAX_VERTICES, Graph, complete_graph, path_graph
from monopos.graph6 import emit_graph6, parse_graph6, parse_graph6_lines


def test_star_token():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert emit_graph6(g) == "D?{"


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0
    assert emit_graph6(g) == "@"


def test_five_vertex_token_roundtrip():
    g = parse_graph6("DQc")
    assert g.n == 5
    assert emit_graph6(g) == "DQc"


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<D?{").n == 5


def test_known_small_encodings():
    assert emit_graph6(complete_graph(2)) == "A_"
    assert emit_graph6(Graph.from_edges(2, [])) == "A?"
    assert parse_graph6("Bw") == complete_graph(3)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=12))
def test_roundtrip_small(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_roundtrip_wide_order(rng):
    edges = [(u, v) for u in range(100) for v in range(u + 1, 100) if rng.random() < 0.05]
    g = Graph.from_edges(100, edges)
    token = emit_graph6(g)
    assert token.startswith(chr(126))
    assert parse_graph6(token) == g


def test_multiline():
    text = "@\nD?{\n\nBw\n"
    gs = parse_graph6_lines(text)
    assert [g.n for g in gs] == [1, 5, 3]


def test_truncated_payload_names_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D?")
    assert err.value.offset == 2


def test_out_of_range_byte_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D!{")
    assert err.value.offset == 1


def test_trailing_bytes_rejected():
    with pytest.raises(Graph6Error):
        parse_graph6("D?{?")


def test_nonzero_padding_rejected():
    # K2 payload uses 1 of 6 bits; force a stray bit into the padding
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b011111))


def test_order_above_cap():
    token = chr(126) + "".join(chr(((600 >> s) & 63) + 63) for s in (12, 6, 0))
    with pytest.raises(CapExceeded):
        parse_graph6(token)


def test_empty_token():
    with pytest.raises(Graph6Error):
        parse_graph6("   ")


def test_path_emit_parse_identity():
    for n in (1, 2, 3, 10, 62, 63, 64):
        g = path_graph(n)
        assert parse_graph6(emit_graph6(g)) == g


# -- the per-pair twin: one bit per vertex pair, as graph6 is specified ------


def _pairwise_emit(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    out = []
    code = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            code = (code << 1) | (1 if g.adj[i] & bit(j) else 0)
            filled += 1
            if filled == 6:
                out.append(chr(code + 63))
                code = 0
                filled = 0
    if filled:
        out.append(chr((code << (6 - filled)) + 63))
    return head + "".join(out)


def _pairwise_parse(line: str) -> Graph:
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6Error("empty graph6 token", offset=0)
    first = ord(text[0]) - 63
    if not 0 <= first <= 63:
        raise Graph6Error(f"byte {text[0]!r} outside graph6 range", offset=0)
    if first < 63:
        n = first
        pos = 1
    else:
        if len(text) < 2 or ord(text[1]) - 63 == 63:
            raise Graph6Error("8-byte order header not supported (order would exceed cap)",
                              offset=1)
        if len(text) < 4:
            raise Graph6Error("truncated multi-byte order header", offset=len(text))
        n = 0
        for i in range(1, 4):
            code = ord(text[i]) - 63
            if not 0 <= code <= 63:
                raise Graph6Error(f"byte {text[i]!r} outside graph6 range", offset=i)
            n = (n << 6) | code
        pos = 4
    if n == 0:
        raise Graph6Error("order 0 not supported", offset=0)
    if n > MAX_VERTICES:
        raise CapExceeded(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) - pos < nbytes:
        raise Graph6Error(
            f"truncated bit vector: need {nbytes} payload bytes, found {len(text) - pos}",
            offset=len(text))
    if len(text) - pos > nbytes:
        raise Graph6Error("trailing bytes after bit vector", offset=pos + nbytes)
    adj = [0] * n
    bit_index = 0
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for off in range(pos, len(text)):
        code = ord(text[off]) - 63
        if not 0 <= code <= 63:
            raise Graph6Error(f"byte {text[off]!r} outside graph6 range", offset=off)
        for k in range(5, -1, -1):
            if bit_index >= nbits:
                if (code >> k) & 1:
                    raise Graph6Error("nonzero padding bits", offset=off)
                continue
            if (code >> k) & 1:
                i, j = pairs[bit_index]
                adj[i] |= bit(j)
                adj[j] |= bit(i)
            bit_index += 1
    return Graph(n, tuple(adj))


def _outcome(parse, token: str):
    try:
        return parse(token)
    except Graph6Error as err:
        return type(err), str(err), err.offset


def test_columns_equal_per_pair_twin(rng):
    orders = [1, 2, 3, 61, 62, 63, 64, 511, 512] + [rng.randint(1, 512) for _ in range(8)]
    for n in orders:
        p = rng.random() if n < 100 else rng.uniform(0, 0.2)
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                 if rng.random() < p])
        token = emit_graph6(g)
        assert token == _pairwise_emit(g), n
        assert parse_graph6(token) == _pairwise_parse(token) == g, n


def test_columns_report_the_twins_errors(rng):
    """Corrupted tokens: the same error class, message and byte offset."""
    for _ in range(300):
        n = rng.choice([rng.randint(1, 12), rng.randint(60, 70)])
        p = rng.random()
        token = _pairwise_emit(Graph.from_edges(
            n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
        at = rng.randrange(len(token))
        corrupt = rng.choice([
            token[:at] + rng.choice("! ~\x7f\u00e9") + token[at + 1:],
            token[:-1] + chr((ord(token[-1]) - 63 | 1) + 63),
            token[:at],
            token + "?",
        ])
        assert _outcome(parse_graph6, corrupt) == _outcome(_pairwise_parse, corrupt), corrupt
