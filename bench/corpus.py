"""Seeded corpus of simple d-regular graphs, written as graph6 lines.

This generator belongs to the benchmark, not to the package: it never calls
`indsets.gen_random_regular` or the package's graph6 codec, so a change to
the package's generator or codec cannot change the inputs of the `verify_*`
workloads.

Stubs are paired one random pair at a time and only the offending pair is
redrawn when it would make a loop or a double edge (Steger-Wormald style);
the whole attempt restarts only when no valid pair turns up. The result is
not exactly uniform, which a benchmark input does not need, but it arrives
quickly at every degree used here.
"""

from __future__ import annotations

import random

PAIR_TRIES = 100


def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edge list (u < v) of a simple d-regular graph on n vertices."""
    if (n * d) % 2 or not 0 <= d < n:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        nbrs: list[set[int]] = [set() for _ in range(n)]
        edges = []
        while stubs:
            for _ in range(PAIR_TRIES):
                i, j = rng.sample(range(len(stubs)), 2)
                u, v = stubs[i], stubs[j]
                if u != v and v not in nbrs[u]:
                    break
            else:
                break
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((min(u, v), max(u, v)))
        if not stubs:
            return sorted(edges)


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 line for a simple graph given as (u, v) pairs, n <= 258047."""
    if n <= 62:
        parts = [chr(63 + n)]
    else:
        parts = [chr(126)] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in edge_set else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k : k + 6]:
            group = (group << 1) | b
        parts.append(chr(63 + group))
    return "".join(parts)


def regular_corpus(seed: int, copies: dict[tuple[int, int], int]) -> list[tuple]:
    """(n, d, copy, edges) for every (d, n) class and copy, each seeded on its own."""
    out = []
    for (d, n), count in copies.items():
        for k in range(count):
            rng = random.Random(f"{seed}:{n}:{d}:{k}")
            out.append((n, d, k, random_regular_edges(n, d, rng)))
    return out
