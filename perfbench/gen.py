"""Seeded input stream for the analyze workload (standard library only).

The stream mixes connected simple random cubic graphs, drawn by the pairing
(configuration) model, with extremal-family members built from the specs in
``data/family_specs.json``. Both come from fixed pools so that every member
has a reference dossier computed once (``make_reference.py``): pool member
``(n, i)`` is always the same graph, and ``--seed`` decides which members
enter the stream and in which order. Every order and every (family kind,
order) stratum contributes a fixed number of members, and the few members
of the largest orders are fixed, so streams for different seeds cost about
the same.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ORDERS = (14, 16, 18, 20, 22, 24)
POOL_PER_ORDER = 30


def random_cubic(n: int, index: int) -> tuple[list[tuple[int, int]], int]:
    """Pool member ``index`` of order n: the first pairing-model draw that is
    simple and connected. Returns its edges and the number of rejected draws."""
    rng = random.Random(f"perfbench-analyze:{n}:{index}")
    redraws = 0
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = sorted(
            (min(u, v), max(u, v)) for u, v in zip(points[0::2], points[1::2])
        )
        if (
            all(u != v for u, v in edges)
            and len(set(edges)) == len(edges)
            and _connected(n, edges)
        ):
            return edges, redraws
        redraws += 1


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in adjacency[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 encoding of a simple graph with n <= 62."""
    if not 0 <= n <= 62:
        raise ValueError("short graph6 form covers n <= 62 only")
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k : k + 6]:
            value = (value << 1) | bit
        chars.append(chr(value + 63))
    return "".join(chars)


def family_specs() -> list[dict]:
    """Family-member construction specs (dicts accepted by ``build_family``)."""
    return json.loads((DATA_DIR / "family_specs.json").read_text())


def family_orders() -> list[int]:
    """Order of every family spec, read from the graph6 lines of the
    reference dossiers (the first character of a short graph6 line is
    n + 63)."""
    reference = json.loads((REFERENCE_DIR / "analyze.json").read_text())
    return [ord(reference[f"family:{i}"]["graph6"][0]) - 63 for i in range(len(family_specs()))]


def plan(
    seed: int, per_order: dict[int, int], anchors: dict[int, int], family_max_n: int
) -> list[str]:
    """Pool keys of the stream for ``seed``, in stream order.

    - ``per_order[n]`` random members of order n, drawn by the seed;
    - the first ``anchors[n]`` pool members of order n, the same for every
      seed: at the largest orders the cost of one member varies by up to 2x
      (0.5 to 1 s at n = 24), so drawing them would make the stream's cost
      depend on the seed;
    - one member of every (family kind, order) stratum with order at most
      ``family_max_n``, drawn by the seed; members of one stratum cost about
      the same.

    Random members are keyed ``cubic:<n>:<i>``, family members
    ``family:<index into family_specs()>``.
    """
    rng = random.Random(seed)
    keys = []
    for n, count in sorted(per_order.items()):
        keys += [f"cubic:{n}:{i}" for i in sorted(rng.sample(range(POOL_PER_ORDER), count))]
    for n, count in sorted(anchors.items()):
        keys += [f"cubic:{n}:{i}" for i in range(count)]
    strata: dict[tuple[str, int], list[int]] = {}
    for index, (spec, n) in enumerate(zip(family_specs(), family_orders())):
        if n <= family_max_n:
            strata.setdefault((spec["family"], n), []).append(index)
    keys += [f"family:{rng.choice(indices)}" for _, indices in sorted(strata.items())]
    rng.shuffle(keys)
    return keys


def random_member(key: str) -> tuple[str, int]:
    """graph6 line and redraw count of a ``cubic:<n>:<i>`` pool key."""
    _, n, index = key.split(":")
    edges, redraws = random_cubic(int(n), int(index))
    return graph6(int(n), edges), redraws
