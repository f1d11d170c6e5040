"""Seeded inputs for the benchmark workloads.

Every graph here is built by this module alone, so a change to the library
cannot change what the benchmark feeds it.  The same seed gives the same
graphs, the same jobs and the same job order.  A graph becomes a ``.sg`` file;
the program under test sees nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class Graph:
    """A sandpile graph as the benchmark knows it: the sink is the last
    vertex, and ``edges`` holds one (source, target) index pair per unit
    edge, parallel edges and loops included."""

    key: str
    names: tuple
    edges: tuple

    @property
    def sink(self) -> int:
        return len(self.names) - 1

    def degrees(self) -> list:
        deg = [0] * len(self.names)
        for s, _ in self.edges:
            deg[s] += 1
        return deg

    def monoid_size(self) -> int:
        """The sandpile monoid has one element per stable configuration."""
        return prod(d for v, d in enumerate(self.degrees()) if v != self.sink)

    def text(self) -> str:
        """The graph file, with the balanced weighting (each edge weighs the
        out-degree of its source), so that the weighted-monoid commands see
        the same monoid as the sandpile commands."""
        deg = self.degrees()
        lines = [f"vertex {n}" for n in self.names]
        for s, t in self.edges:
            suffix = f" w={deg[s]}" if deg[s] != 1 else ""
            lines.append(f"edge {self.names[s]} {self.names[t]}{suffix}")
        lines.append(f"sink {self.names[self.sink]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``config`` lists (vertex index, grains) for
    ``stabilize``; ``expect_error`` names the typed error the generator
    predicts, in which case the job succeeds only by exiting 1 with it."""

    command: str
    graph: Graph
    options: tuple = ()
    config: tuple = ()
    expect_error: str | None = None

    def argv(self, path: str) -> list:
        return [self.command, path, *self.options, "--json"]


# ------------------------------------------------------------------ families


def grid_graph(rows: int, cols: int) -> Graph:
    """Every cell fires one grain to each of its four neighbours; a missing
    neighbour is the sink, so the out-degree is 4 everywhere."""
    names = [f"r{i}c{j}" for i in range(rows) for j in range(cols)] + ["s"]
    sink = rows * cols
    edges = []
    for i in range(rows):
        for j in range(cols):
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                inside = 0 <= a < rows and 0 <= b < cols
                edges.append((i * cols + j, a * cols + b if inside else sink))
    return Graph(f"grid_{rows}x{cols}", tuple(names), tuple(edges))


def complete_graph(n: int) -> Graph:
    """K_n with one vertex made the sink (its outgoing edges dropped)."""
    names = [f"v{i}" for i in range(n - 1)] + ["s"]
    edges = [(v, t) for v in range(n - 1) for t in range(n) if t != v]
    return Graph(f"complete_{n}", tuple(names), tuple(edges))


def multi_cycle_graph(key: str, classes) -> Graph:
    """Disjoint directed cycles sharing one sink; a vertex of out-degree d
    sends one edge along its cycle and d - 1 edges to the sink."""
    names = []
    edges = []
    members = []
    for ci, degrees in enumerate(classes):
        start = len(names)
        names.extend(f"c{ci}v{i}" for i in range(len(degrees)))
        members.append((start, degrees))
    sink = len(names)
    for start, degrees in members:
        m = len(degrees)
        for i, d in enumerate(degrees):
            edges.append((start + i, start + (i + 1) % m))
            edges.extend([(start + i, sink)] * (d - 1))
    return Graph(key, tuple(names) + ("s",), tuple(edges))


def _reaches_sink(m: int, edges) -> bool:
    sink = m
    reach = {sink}
    changed = True
    while changed:
        changed = False
        for s, t in edges:
            if t in reach and s not in reach:
                reach.add(s)
                changed = True
    return len(reach) == m + 1


def random_graph(rng: random.Random, key: str, degrees) -> Graph | None:
    """Vertex v gets ``degrees[v]`` edges, each to a uniform target among the
    non-sink vertices and the sink (loops allowed).  None when some vertex
    cannot reach the sink."""
    m = len(degrees)
    edges = [(v, rng.randrange(m + 1)) for v in range(m) for _ in range(degrees[v])]
    if not _reaches_sink(m, edges):
        return None
    return Graph(key, tuple(f"v{i}" for i in range(m)) + ("s",), tuple(edges))


def random_graph_with_degrees(rng: random.Random, key: str, degrees) -> Graph:
    while True:
        g = random_graph(rng, key, degrees)
        if g is not None:
            return g


# ------------------------------------------------------------------ workloads


def graphs_of(jobs) -> list:
    """The distinct graphs the jobs use, in first-use order."""
    return list(dict.fromkeys(job.graph for job in jobs))


def _interleave(groups) -> list:
    """Spread each group's jobs evenly over the result, so that any stretch
    of the closed loop sees about the same mix."""
    placed = []
    for group in groups:
        n = len(group)
        for i, job in enumerate(group):
            placed.append(((i + 0.5) / n, len(placed), job))
    placed.sort(key=lambda item: (item[0], item[1]))
    return [job for _, _, job in placed]


def _radical_inverse(i: int) -> float:
    """The base-2 van der Corput point: the bits of ``i`` mirrored behind
    the binary point, so 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f /= 2
    return x


def _spread(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """``count`` values spread evenly over [lo, hi), one in each of ``count``
    equal slots at a seeded offset: every seed draws other sizes, but the
    same spread of sizes.  The slots come in van der Corput order, so every
    leading part of the list, and with it every stretch of a run that stops
    inside a pass, spreads over the whole range as well."""
    offset = rng.random()
    points = [_radical_inverse(i) for i in range(count)]
    rank = {x: r for r, x in enumerate(sorted(points))}
    return [lo + (hi - lo) * (rank[x] + offset) / count for x in points]


def _pile(rng: random.Random, rows: int, cols: int) -> tuple:
    """One pile of 3.9 to 4 grains per cell on a cell next to the centre.
    Topple counts then vary little from seed to seed."""
    i = min(rows - 1, rows // 2 + rng.randint(-1, 0))
    j = min(cols - 1, cols // 2 + rng.randint(-1, 0))
    return ((i * cols + j, round(rows * cols * rng.uniform(3.9, 4.0))),)


def _shape(rng: random.Random, total: int) -> tuple:
    """Rows and columns adding up to ``total``, at most two apart."""
    rows = total // 2 + rng.randint(-1, 1)
    return rows, total - rows


def _coverage_jobs(rng: random.Random) -> list:
    """Two small jobs that every workload runs once per pass, so that every
    layer the trace names records some work on every workload: ``realize``
    on the 1x2 grid reaches the monoid, rewriting, K-theory and realization
    layers, ``stabilize`` on a 3x3 grid the firing layer."""
    small = grid_graph(3, 3)
    config = ((rng.randrange(9), rng.randint(16, 36)),)
    text = ",".join(f"{small.names[v]}={k}" for v, k in config)
    return [Job("realize", grid_graph(1, 2)),
            Job("stabilize", small, ("--config", text, "--mode", "sp"), config)]


# Jobs per pass: stabilize on grids whose rows and columns add up to 20-48
# (sides of about 10-24), k0 on square grids of side 6-14 and on K_20-K_100,
# each spread over its range by ``_spread``, and one check on each of those
# graphs.  Sizes vary smoothly, so the job latencies have no gaps near their
# median and 90th percentile.
GRID_STABILIZE = (20, 48, 60)
GRID_K0_SQUARE = (6, 15, 10)
GRID_K0_COMPLETE = (20, 101, 10)


def grid_workload(seed: int, scale: float = 1.0) -> list:
    """Few large inputs: long firing runs on grids and integer SNFs of
    100-200 rows; no Cayley table is built."""
    rng = random.Random(seed)

    def sizes(lo, hi, count, least):
        return [max(least, int(v * scale)) for v in _spread(rng, lo, hi, count)]

    stabilize = []
    totals = _spread(rng, *GRID_STABILIZE)
    rank = {v: r for r, v in enumerate(sorted(totals))}
    for v in totals:
        rows, cols = _shape(rng, max(4, int(v * scale)))
        g = grid_graph(rows, cols)
        config = _pile(rng, rows, cols)
        text = ",".join(f"{g.names[v]}={k}" for v, k in config)
        # Neighbouring sizes take turns, so both modes span the range.
        mode = ("sp", "free")[rank[v] % 2]
        stabilize.append(Job("stabilize", g, ("--config", text, "--mode", mode), config))
    k0 = [Job("k0", grid_graph(n, n), ("--sandpile-group",))
          for n in sizes(*GRID_K0_SQUARE, 2)]
    k0 += [Job("k0", complete_graph(n), ("--sandpile-group",))
           for n in sizes(*GRID_K0_COMPLETE, 3)]
    check = [Job("check", job.graph) for job in stabilize + k0]
    return _interleave([stabilize, k0, check, _coverage_jobs(rng)])


def _degrees_for(rng: random.Random, size: int) -> list:
    """A seeded list of three to six out-degrees, each from 2 to 6, whose
    product is ``size``."""
    while True:
        m = rng.randint(3, 6)
        degrees = []
        rest = size
        for _ in range(m - 1):
            choices = [d for d in range(2, 7) if rest % d == 0 and rest // d >= 2]
            if not choices:
                break
            d = rng.choice(choices)
            degrees.append(d)
            rest //= d
        else:
            if 2 <= rest <= 6:
                return degrees + [rest]


def _table_graph(rng: random.Random, key: str, size: int, cycles: bool) -> Graph:
    """A random graph, or a union of two cycles, with a monoid of the given
    size."""
    degrees = _degrees_for(rng, size)
    if not cycles:
        return random_graph_with_degrees(rng, key, degrees)
    split = rng.randint(1, len(degrees) - 1)
    return multi_cycle_graph(key, [degrees[:split], degrees[split:]])


# Graphs per pass at each monoid size, as (size, random graphs, unions of
# two cycles, how many of each also run ``monoid``).  Unions of cycles have
# refinement monoids, whose exhaustive refinement check makes ``monoid``
# several times dearer than ``group``.  The dearer jobs (these ``monoid``
# jobs on unions of cycles and the fixed graphs below) are a twentieth of a
# pass, so the 90th percentile falls among the many 128-element jobs; a
# percentile that falls among a few dear jobs of scattered cost varies by a
# quarter from run to run.
TABLE_MIX = ((128, 96, 88, (48, 4)),)
# The dearer tables come from fixed unions of cycles.  The seed rotates each
# cycle and orders the cycles, which relabels the graph without changing its
# cost, so that one pass costs about the same for every seed.
TABLE_CYCLES = (((3, 4), (4, 6)), ((4, 4), (4, 6)), ((4, 4, 4), (2, 4)))


def _rotated(rng: random.Random, classes) -> list:
    out = []
    for degrees in classes:
        k = rng.randrange(len(degrees))
        out.append(list(degrees[k:] + degrees[:k]))
    rng.shuffle(out)
    return out


def tables_workload(seed: int, scale: float = 1.0) -> list:
    """Many stabilisations of tiny configurations: Cayley tables of 128 to
    1024 elements, on both sides of the 256-element cross-check threshold."""
    rng = random.Random(seed)
    dear = [grid_graph(2, 2), complete_graph(5), grid_graph(1, 5)]
    for classes in TABLE_CYCLES:
        key = "cycles_" + "_".join(str(prod(c)) for c in classes)
        dear.append(multi_cycle_graph(key, _rotated(rng, classes)))
    dear = [g for g in dear if g.monoid_size() <= 1024 * scale]
    groups = [[Job("group", g) for g in dear],
              [Job("monoid", g) for g in dear if g.monoid_size() <= 256]]
    for size, n_random, n_cycles, with_monoid in TABLE_MIX:
        for cycles, count, m in ((False, n_random, with_monoid[0]),
                                 (True, n_cycles, with_monoid[1])):
            kind = "cycles" if cycles else "random"
            graphs = [_table_graph(rng, f"{kind}_{size}_{i}", size, cycles)
                      for i in range(round(count * scale))]
            groups.append([Job("group", g) for g in graphs])
            groups.append([Job("monoid", g) for g in graphs[:round(m * scale)]])
    groups.append(_coverage_jobs(rng))
    return _interleave([group for group in groups if group])


def corpus_graph(rng: random.Random, key: str) -> Graph:
    """One draw from the distribution of the library's seeded property-test
    corpus: up to six non-sink vertices, out-degrees 1 to 4, uniform edge
    targets, rejection of monoids over 128 elements and of graphs whose sink
    is not reachable."""
    while True:
        m = rng.randint(1, 6)
        degrees = [rng.randint(1, 4) for _ in range(m)]
        if prod(degrees) > 128:
            continue
        g = random_graph(rng, key, degrees)
        if g is not None:
            return g


def no_cycle_set(g: Graph) -> set:
    """Vertices from which no cycle is reachable: the sink, then every vertex
    all of whose targets are already in the set."""
    targets = [[] for _ in g.names]
    for s, t in g.edges:
        targets[s].append(t)
    inside = {g.sink}
    changed = True
    while changed:
        changed = False
        for v in range(len(g.names)):
            if v not in inside and all(t in inside for t in targets[v]):
                inside.add(v)
                changed = True
    return inside


def is_conical(g: Graph) -> bool:
    deg = g.degrees()
    return all(deg[v] == 1 for v in no_cycle_set(g) if v != g.sink)


# Share of each monoid size among the graphs ``corpus_graph`` draws,
# estimated from 10**6 draws with ``random.Random(0)``.
CORPUS_SIZE_SHARES = {
    1: 0.04404, 2: 0.07925, 3: 0.09214, 4: 0.12101, 6: 0.05158, 8: 0.06110,
    9: 0.02888, 12: 0.08329, 16: 0.05790, 18: 0.02482, 24: 0.06090, 27: 0.00911,
    32: 0.03660, 36: 0.04182, 48: 0.05970, 54: 0.00966, 64: 0.02703, 72: 0.03518,
    81: 0.00258, 96: 0.04153, 108: 0.01583, 128: 0.01606,
}


# Graphs per pass.  A run of 30 s covers about one pass, and the more
# graphs it covers, the less the cost of a pass varies between seeds.
CORPUS_GRAPHS = 400


def _quotas(count: int) -> dict:
    """Graphs per monoid size: ``count`` split by the shares, with the
    remainders going to the largest fractional parts."""
    exact = {k: share * count for k, share in CORPUS_SIZE_SHARES.items()}
    quotas = {k: int(x) for k, x in exact.items()}
    short = count - sum(quotas.values())
    for k in sorted(exact, key=lambda k: quotas[k] - exact[k])[:short]:
        quotas[k] += 1
    return quotas


def corpus_workload(seed: int, scale: float = 1.0) -> list:
    """Bulk certification of small random graphs, the way users run it.

    The corpus is a stratified sample: each monoid size gets its expected
    number of graphs, and within a size the graphs are independent draws from
    the corpus distribution.  Monoid size sets most of a graph's cost, so a
    pass then costs about the same for every seed."""
    rng = random.Random(seed)
    quotas = _quotas(max(4, round(CORPUS_GRAPHS * scale)))
    strata = {k: [] for k in quotas}
    accepted = 0
    while any(len(strata[k]) < q for k, q in quotas.items()):
        g = corpus_graph(rng, f"corpus_{accepted:03d}")
        if len(strata[g.monoid_size()]) < quotas[g.monoid_size()]:
            strata[g.monoid_size()].append(g)
            accepted += 1
    groups = []
    for graphs in strata.values():
        jobs = []
        for g in graphs:
            jobs += [Job("realize", g), Job("monoid", g),
                     Job("wmonoid", g, ("--variant", "with-sinks"))]
            if is_conical(g):
                jobs += [Job("classify", g), Job("k0", g, ("--sandpile-group",))]
            else:
                jobs.append(Job("k0", g, ("--sandpile-group",),
                                expect_error="NotConical"))
        rng.shuffle(jobs)
        groups.append(jobs)
    return _interleave([group for group in groups if group] + [_coverage_jobs(rng)])


WORKLOADS = {
    "grid": grid_workload,
    "tables": tables_workload,
    "corpus": corpus_workload,
}
