"""The generic breadth-first closure, kept as the oracle of `weyl.length_ball`:
it multiplies every element by every generator and deduplicates by hash,
with no descent test, so it shares nothing with the search but the group
product."""

from operator import mul


def closure(start, gens, radius=None, step=mul):
    """Every element at most `radius` steps from `start` by step(s, g), s in
    `gens` (s g by default; `simple_mul` when `gens` are simple labels), all
    of them when radius is None, mapped to its distance in BFS order."""
    gens = list(gens)
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and (radius is None or d < radius):
        d += 1
        nxt = []
        for g in frontier:
            for s in gens:
                h = step(s, g)
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
        frontier = nxt
    return dist
