"""graph6 serialization, bit-exact per the standard format definition.

Simple graphs only: 6-bit chunks, value + 63 bytes, upper-triangle
column-major edge bits. One graph per line; an optional ">>graph6<<" header
prefix is tolerated and stripped.
"""

from __future__ import annotations

from .errors import FormatUnsupportedError, GraphParseError
from .graphs import Graph, _graph_fact

HEADER = ">>graph6<<"
_MAX_SHORT_N = 62
_MAX_LONG_N = 258047


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a simple graph."""
    line = text.rstrip("\r\n")
    offset = 0
    if line.startswith(HEADER):
        line = line[len(HEADER):]
        offset = len(HEADER)
    if not line:
        raise GraphParseError("empty graph6 payload", offset)
    data = [ord(ch) for ch in line]
    for i, value in enumerate(data):
        if not (63 <= value <= 126):
            raise GraphParseError(
                f"invalid graph6 byte {value!r}", offset + i
            )
    n, pos = _decode_order(data, offset)
    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(data) - pos != bytes_needed:
        raise GraphParseError(
            f"expected {bytes_needed} payload bytes for n={n}, got {len(data) - pos}",
            offset + pos,
        )
    # column-major upper triangle as write_graph6 walks it: (0,1), (0,2),
    # (1,2), (0,3), ...; the bits past the last pair are padding
    edges = []
    i, j = 0, 1
    for byte in data[pos:]:
        value = byte - 63
        for shift in range(5, -1, -1):
            if j >= n:
                break
            if value >> shift & 1:
                edges.append((i, j))
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, edges)


@_graph_fact
def write_graph6(g: Graph) -> str:
    """Encode a simple graph as a graph6 line (no header, no newline).
    Memoised on the graph, so a graph sent to the ``verify --jobs`` workers
    pass after pass is encoded once."""
    if not g.simple:
        raise FormatUnsupportedError(
            "graph6 cannot represent parallel edges; multigraphs are internal-only"
        )
    if g.n > _MAX_LONG_N:
        raise FormatUnsupportedError(f"graph6 order above {_MAX_LONG_N} not supported")
    out = _encode_order(g.n)
    present = set(g.edges)
    bits_needed = g.n * (g.n - 1) // 2
    value = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            value = value << 1 | ((i, j) in present)
            filled += 1
            if filled % 6 == 0:
                out.append(value + 63)
                value = 0
    if bits_needed % 6:
        value <<= 6 - bits_needed % 6
        out.append(value + 63)
    return "".join(map(chr, out))


def read_graph6_lines(text: str) -> list[Graph]:
    """Decode every non-blank line of a graph6 document."""
    graphs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            graphs.append(parse_graph6(line.strip()))
        except GraphParseError as exc:
            # the message names the offset already: keep it, print it once
            error = GraphParseError(f"line {lineno}: {exc}")
            error.offset = exc.offset
            raise error from exc
    return graphs


def _decode_order(data: list[int], base_offset: int) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] == 126:
        raise GraphParseError("graph6 orders above 258047 not supported", base_offset)
    if len(data) < 4:
        raise GraphParseError("truncated long-form vertex count", base_offset)
    n = 0
    for value in data[1:4]:
        n = n << 6 | value - 63
    return n, 4


def _encode_order(n: int) -> list[int]:
    if n <= _MAX_SHORT_N:
        return [n + 63]
    return [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
