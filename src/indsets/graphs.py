"""Bitmask graphs: construction, generators, graph6 codec, exact independence number.

Vertices are 0..n-1 and every vertex set (adjacency rows included) is a plain
int used as a bit mask, so set algebra is integer arithmetic. Graphs are
immutable once built; generators take explicit seeds and the exact
independence-number search visits vertices in index order, so every result
here is reproducible.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Sequence

# Python ints are arbitrary precision, so the cap is a policy knob rather than
# a machine limit; raise it to admit corpora beyond one machine word.
VERTEX_CAPACITY = 64

RANDOM_REGULAR_RETRY_CAP = 10_000


class GraphError(ValueError):
    """Invalid graph construction, generator parameters, or graph6 input."""


def _require_capacity(n: int, what: str):
    if n > VERTEX_CAPACITY:
        raise GraphError(f"{what} {n} exceeds capacity {VERTEX_CAPACITY}")


def mask_of(vertices: Iterable[int]) -> int:
    """Bit mask with the given vertex indices set."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def mask_vertices(bits: int) -> list[int]:
    """Sorted list of vertex indices set in a mask."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Graph(namedtuple("Graph", "n adj")):
    """Simple undirected graph as per-vertex neighbor bit masks: `n` and `adj`."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(adj) != n:
            raise GraphError("adjacency length must equal vertex count")
        for v, row in enumerate(adj):
            if row >> n:
                raise GraphError(f"adjacency row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise GraphError(f"loop at vertex {v}")
        for v in range(n):
            for w in mask_vertices(adj[v]):
                if not (adj[w] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {v} and {w}")
        return super().__new__(cls, n, adj)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so route it through __new__'s checks.
        return cls(*iterable)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def regular_degree(self) -> int | None:
        """Common degree if regular, else None. The empty graph is not regular."""
        if self.n == 0:
            return None
        d = self.adj[0].bit_count()
        if all(row.bit_count() == d for row in self.adj):
            return d
        return None


class GraphStats(namedtuple("GraphStats", "n d alpha edge_count")):
    """Exact size, degree (None unless regular), independence number, and edge count."""

    __slots__ = ()


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph from an edge list; duplicate edges collapse.

    Raises GraphError for loops, out-of-range endpoints, or n beyond VERTEX_CAPACITY.
    """
    _require_capacity(n, "vertex count")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def gen_complete_bipartite(d: int) -> Graph:
    """One copy of K_{d,d}: sides {0..d-1} and {d..2d-1}, all cross edges."""
    if d < 1:
        raise GraphError("side size must be at least 1")
    _require_capacity(2 * d, "vertex count")
    side = ((1 << d) - 1) << d
    other = (1 << d) - 1
    return Graph(2 * d, tuple([side] * d + [other] * d))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    _require_capacity(n, "vertex count")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def gen_petersen() -> Graph:
    """Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph(10, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; h's vertices are relabeled to g.n..g.n+h.n-1."""
    n = g.n + h.n
    _require_capacity(n, "union size")
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, tuple(adj))


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform random simple d-regular graph: sequential pairing with rejection.

    Each vertex has d half-edge stubs. An attempt starts from a fresh stub
    list, pairs its last unpaired stub with a uniform stub among the others
    (the draws `random.randrange` makes: as many random bits as the count
    has, redrawn until below it), and is abandoned at its first loop or
    repeated edge.

    Why the output is uniform: each perfect matching of the nd stubs is
    reached with probability 1/(nd-1)!!, as every step picks uniformly among
    the stubs left. An abandoned attempt has a prefix that already holds a
    loop or a repeated edge, so it could only have completed as a non-simple
    matching; an accepted attempt is therefore uniform over simple matchings.
    Every simple d-regular graph arises from exactly (d!)^n of those (the
    orders of the stubs at each vertex), so the accepted graph is uniform.

    When 2d > n-1 the (n-1-d)-regular graph is drawn and its complement
    returned. Complementing is a bijection between the two classes, and n*d
    is even iff n*(n-1-d) is, so this is uniform too. Deterministic per seed.
    """
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even")
    if not 0 <= d < n:
        raise GraphError("need 0 <= d < n")
    _require_capacity(n, "vertex count")
    k = min(d, n - 1 - d)
    getrandbits = random.Random(seed).getrandbits
    fresh = [v for v in range(n) for _ in range(k)]
    for _ in range(RANDOM_REGULAR_RETRY_CAP):
        stubs = fresh[:]
        adj = [0] * n
        top = len(stubs) - 1
        while top > 0:
            u = stubs[top]
            bits = top.bit_length()
            j = getrandbits(bits)
            while j >= top:
                j = getrandbits(bits)
            v = stubs[j]
            if u == v or (adj[u] >> v) & 1:
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            stubs[j] = stubs[top - 1]
            top -= 2
        else:
            if k != d:
                full = (1 << n) - 1
                adj = [full ^ (1 << v) ^ row for v, row in enumerate(adj)]
            return Graph(n, tuple(adj))
    raise GraphError(
        f"no simple {d}-regular graph on {n} vertices found in "
        f"{RANDOM_REGULAR_RETRY_CAP} pairing attempts"
    )


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_encode_size(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) * 2 + "".join(
            chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0)
        )
    raise GraphError(f"vertex count {n} not encodable in graph6")


def _g6_decode_size(text: str) -> tuple[int, int]:
    """Return (n, chars consumed); rejects non-minimal size headers."""
    if not text:
        raise GraphError("empty graph6 string")
    b0 = ord(text[0]) - 63
    if b0 < 0 or b0 > 63:
        raise GraphError("malformed graph6 size header")
    if b0 < 63:
        return b0, 1
    if len(text) >= 2 and ord(text[1]) == 126:
        if len(text) < 8:
            raise GraphError("truncated graph6 size header")
        n = 0
        for ch in text[2:8]:
            n = (n << 6) | _g6_group(ch)
        if n <= 258047:
            raise GraphError("non-canonical graph6 size header")
        return n, 8
    if len(text) < 4:
        raise GraphError("truncated graph6 size header")
    n = 0
    for ch in text[1:4]:
        n = (n << 6) | _g6_group(ch)
    if n <= 62:
        raise GraphError("non-canonical graph6 size header")
    return n, 4


def _g6_group(ch: str) -> int:
    code = ord(ch) - 63
    if code < 0 or code > 63:
        raise GraphError(f"byte {ord(ch)} outside graph6 printable range")
    return code


def write_graph6(g: Graph) -> str:
    """Canonical graph6 line (no trailing newline, no '>>graph6<<' prefix)."""
    parts = [_g6_encode_size(g.n)]
    group = 0
    filled = 0
    for j in range(1, g.n):
        row = g.adj[j]
        for i in range(j):
            group = (group << 1) | ((row >> i) & 1)
            filled += 1
            if filled == 6:
                parts.append(chr(63 + group))
                group = 0
                filled = 0
    if filled:
        parts.append(chr(63 + (group << (6 - filled))))
    return "".join(parts)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line; the optional '>>graph6<<' prefix is accepted.

    Rejects malformed headers, out-of-range bytes, trailing garbage, nonzero
    padding bits, and sizes beyond VERTEX_CAPACITY.
    """
    line = text.strip("\r\n")
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    n, consumed = _g6_decode_size(line)
    _require_capacity(n, "graph6 size")
    body = line[consumed:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(
            f"graph6 body length {len(body)} != expected {need} for n={n}"
        )
    bits = 0
    for ch in body:
        bits = (bits << 6) | _g6_group(ch)
    pad = 6 * need - n * (n - 1) // 2
    if pad and bits & ((1 << pad) - 1):
        raise GraphError("nonzero padding bits in graph6 body")
    adj = [0] * n
    pos = 6 * need
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (bits >> pos) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Exact maximum independent set
# ---------------------------------------------------------------------------


def is_independent(g: Graph, bits: int) -> bool:
    """True iff no two vertices in the mask are adjacent."""
    rest = bits
    while rest:
        low = rest & -rest
        rest ^= low
        if g.adj[low.bit_length() - 1] & bits:
            return False
    return True


def max_independent_set(g: Graph) -> int:
    """Exact maximum independent set as a bit mask.

    Colour-ordered branch and bound: Tomita and Seki's maximum-clique search
    (MCQ) run on the complement. Each node splits its candidates greedily into
    cliques of G, lowest remaining vertex first, and branches on them from
    the last clique back. Before it takes a vertex of clique k, the untried
    candidates lie in cliques 1..k, so they add at most k vertices: one
    partition bounds every child of the node. The search follows vertex
    indices only, so the returned witness is deterministic.
    """
    adj = g.adj
    best_mask = 0
    best_size = 0

    def expand(chosen: int, size: int, cand: int):
        nonlocal best_mask, best_size
        if size > best_size:
            best_size = size
            best_mask = chosen
        cliques = []
        rest = cand
        while rest:
            clique = 0
            grow = rest
            while grow:
                low = grow & -grow
                clique |= low
                grow &= adj[low.bit_length() - 1]
            rest ^= clique
            cliques.append(clique)
        for k in range(len(cliques), 0, -1):
            clique = cliques[k - 1]
            while clique:
                if size + k <= best_size:
                    return
                low = clique & -clique
                clique ^= low
                cand ^= low
                expand(chosen | low, size + 1, cand & ~adj[low.bit_length() - 1])

    expand(0, 0, g.full_mask)
    return best_mask


def component_masks(adj: Sequence[int], verts: int) -> list[int]:
    """Connected components of the subgraph induced by a vertex mask."""
    comps = []
    rest = verts
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nbrs = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nbrs |= adj[low.bit_length() - 1]
            frontier = nbrs & verts & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def is_union_of_equal_cliques(g: Graph) -> bool:
    """True iff every component is complete and all components have equal order."""
    if g.n == 0:
        return False
    comps = component_masks(g.adj, g.full_mask)
    k = comps[0].bit_count()
    for comp in comps:
        if comp.bit_count() != k:
            return False
        for v in mask_vertices(comp):
            if (g.adj[v] & comp).bit_count() != k - 1:
                return False
    return True


def graph_stats(g: Graph) -> GraphStats:
    """Exact n, common degree (if regular), independence number, edge count."""
    return GraphStats(
        n=g.n,
        d=g.regular_degree(),
        alpha=max_independent_set(g).bit_count(),
        edge_count=g.edge_count(),
    )
