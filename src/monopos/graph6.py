"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix, column by
column, into printable ASCII (63..126), six bits per byte, after a header
encoding the order.  Orders up to 62 use the one-byte header; larger orders
(up to this package's 512-vertex cap) use the four-byte ``126 + 18 bits``
header.  Decoding rejects out-of-range bytes, truncated payloads and
trailing bytes, naming the byte offset of the problem.
"""

from __future__ import annotations

import re

from .bitset import full_mask
from .errors import CapExceeded, Graph6Error
from .graph import MAX_VERTICES, Graph

_HEADER = ">>graph6<<"
_OUT_OF_RANGE = re.compile(r"[^?-~]")  # graph6 bytes are 63 ('?') to 126 ('~')
_SEXTET_BITS = {63 + code: format(code, "06b") for code in range(64)}


def parse_graph6(line: str) -> Graph:
    """Decode a single graph6 token (an optional ``>>graph6<<`` prefix is allowed)."""
    text = line.strip()
    if text.startswith(_HEADER):
        text = text[len(_HEADER):]
    if not text:
        raise Graph6Error("empty graph6 token", offset=0)

    pos = 0
    first = ord(text[0]) - 63
    if not 0 <= first <= 63:
        raise Graph6Error(f"byte {text[0]!r} outside graph6 range", offset=0)
    if first < 63:
        n = first
        pos = 1
    else:
        if len(text) < 2 or ord(text[1]) - 63 == 63:
            raise Graph6Error("8-byte order header not supported (order would exceed cap)", offset=1)
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
            offset=len(text),
        )
    if len(text) - pos > nbytes:
        raise Graph6Error("trailing bytes after bit vector", offset=pos + nbytes)

    bad = _OUT_OF_RANGE.search(text, pos)
    if bad:
        raise Graph6Error(f"byte {bad.group()!r} outside graph6 range", offset=bad.start())
    bits = text[pos:].translate(_SEXTET_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits", offset=pos + nbytes - 1)
    # Column j holds the pairs (0, j), ..., (j-1, j), lowest vertex first;
    # padded to n it is j's row below j, and matrix[i::n] is i's row above i.
    cols = [bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n)]
    matrix = "".join(cols)
    return Graph(n, tuple(int(matrix[i::n][::-1], 2) | int(col[::-1], 2)
                          for i, col in enumerate(cols)))


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of g in its current vertex order."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = "".join(format(g.adj[j] & full_mask(j), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def parse_graph6_lines(text: str) -> list[Graph]:
    """Decode one graph per nonempty line."""
    return [parse_graph6(ln) for ln in text.splitlines() if ln.strip()]
