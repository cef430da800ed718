"""The four workloads: seeded inputs, one round of public calls, and the
independent check of every answer.

A workload object is made from the seed alone (plain edge lists and
arguments, no domgraph).  `setup` builds the graphs through domgraph.graphs,
which counts as set-up.  `run_round` issues the same calls in the same order
on every round, through `loop.call(check, fn, *args)`, so the i-th call of
each round has the same input.  Functions are looked up on their module at
call time, so the traced run sees the span recorder's wrappers.

Each call carries a check: a function of the answer, evaluated only after
the timed round.  A check never calls the function under test.  It uses
reference.py (NumPy tables and recurrences written here), the paper's
triangles from domgraph.counting, or values fixed at the commit that
defined the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import tempfile

from domgraph import cli, counting, domination, graphs, reconfig

import reference as ref

ENUM_CAP = 63
BUILD_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_build")


class GraphSpec:
    """A graph as the benchmark knows it: a name, n, 0-based edges, and how
    domgraph builds it (a family constructor or the raw edge list)."""

    def __init__(self, name, n, edges, family=None):
        self.name, self.n, self.edges, self.family = name, n, ref.canonical(edges), family
        self.graph = None

    def build(self):
        if self.family == "ladder":
            self.graph = graphs.ladder(self.n // 2)
        elif self.family:
            self.graph = graphs.make_family(self.family, self.n)
        else:
            self.graph = graphs.graph_from_edges(self.n, self.edges)
        return self.graph

    def built_as_specified(self) -> bool:
        return list(self.graph.edges) == self.edges


def family(kind: str, size: int) -> GraphSpec:
    if kind == "ladder":
        return GraphSpec(f"L{size}", 2 * size, ref.ladder_edges(size), "ladder")
    make = {"path": ref.path_edges, "cycle": ref.cycle_edges, "complete": ref.complete_edges}
    prefix = {"path": "P", "cycle": "C", "complete": "K"}
    return GraphSpec(f"{prefix[kind]}{size}", size, make[kind](size), kind)


def triangle_row(spec: GraphSpec):
    """The paper's triangle row d(G, j), j = 0..n, for a path or cycle."""
    table = counting.path_triangle if spec.family == "path" else counting.cycle_triangle
    return table(spec.n).row(spec.n)


class Workload:
    """One workload; BENCHMARK.json records why it was chosen."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.specs: list[GraphSpec] = []

    def setup(self) -> None:
        for spec in self.specs:
            spec.build()

    def inputs_ok(self) -> bool:
        return all(spec.built_as_specified() for spec in self.specs)

    def run_round(self, loop) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything set-up created outside the process."""


# ---------------------------------------------------------------------------
# subset_oracle
# ---------------------------------------------------------------------------

class SubsetOracle(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        # n = 16..20, C_20 and P_19, so that a round takes about a second and
        # a run has many rounds: P_24 alone took four seconds a call, and
        # n = 21 half a second.  Gamma(P_24) is a probe
        self.specs = [
            GraphSpec(f"R{n}", n, ref.random_connected(self.rng, n, 2 * n)) for n in range(16, 21)
        ] + [family("cycle", 20), family("path", 19)]

    @functools.cache
    def answers(self, spec: GraphSpec) -> dict:
        out = ref.table_answers(spec.n, spec.edges)
        if spec.family in ("path", "cycle"):
            out["counts"] = triangle_row(spec)
        return out

    def run_round(self, loop):
        for spec in self.specs:
            check = self.checks(spec)
            for name in ("total_count", "count_by_cardinality", "domination_number",
                         "count_minimum_sets", "upper_domination_number",
                         "count_maximal_minimal_sets"):
                loop.call(check[name], getattr(domination, name), spec.graph)

    def checks(self, spec: GraphSpec) -> dict:
        def counts():
            return tuple(self.answers(spec)["counts"])

        def gamma():
            return next(j for j, c in enumerate(counts()) if c)

        return {
            "total_count": lambda a: a == sum(counts()) and a % 2 == 1,
            "count_by_cardinality": lambda a: tuple(a) == counts(),
            "domination_number": lambda a: a == gamma(),
            "count_minimum_sets": lambda a: a == counts()[gamma()],
            "upper_domination_number": lambda a: a == self.answers(spec)["upper"],
            "count_maximal_minimal_sets": lambda a: a == self.answers(spec)["max_minimal"],
        }


# ---------------------------------------------------------------------------
# reconfig_space
# ---------------------------------------------------------------------------

DISTANCE_QUERIES = 16

def stratified_pairs(rng) -> list[tuple[float, float]]:
    """Distance query endpoints as fractions of the node range, one per
    stratum on each side, so that short and long distances are both sampled."""
    other = list(range(DISTANCE_QUERIES))
    rng.shuffle(other)
    return [((i + rng.random()) / DISTANCE_QUERIES, (j + rng.random()) / DISTANCE_QUERIES)
            for i, j in enumerate(other)]


class ReconfigSpace(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        # D_n with 7k-33k nodes, so that a round takes about a second and a
        # run has many rounds (P_18's 46k nodes alone took half a second to
        # build and as long again to export; build(P_18) and build(P_20)
        # are probes)
        self.large = [
            family("path", 17),
            family("cycle", 16),
            family("complete", 14),
            family("ladder", 7),
            # random cubic: the order of D_n varies by a few percent between
            # seeds, where G(n, m) varies by a factor of two
            GraphSpec("Q16", 16, ref.random_regular(self.rng, 16, 3)),
        ]
        # the same queries for every seed, and none on the random graph: the
        # median call is a distance query, and with random queries, or with
        # queries on the random graph, it moved by a quarter between seeds
        self.queries = stratified_pairs(random.Random(0))
        self.queried = self.large[:3]
        # exported as JSON and DOT: the smallest graph, since export takes
        # more than half the time of a D_n it runs on
        self.exported = self.large[3:4]
        # (G, k) with D_k(G) inside the Hamiltonian search cap (order <= 20),
        # connected with minimum degree 2, so the search runs; the first two
        # are Hamiltonian
        self.small = [(family("path", 5), 4), (family("cycle", 5), 4), (family("complete", 4), 3)]
        self.specs = self.large + [spec for spec, _ in self.small]

    @functools.cache
    def answers(self, spec: GraphSpec, k: int) -> dict:
        return ref.reconfig_answers(spec.n, spec.edges, k)

    def run_round(self, loop):
        for spec in self.large:
            self.explore(loop, spec)
        for spec, k in self.small:
            r = loop.call(lambda a, s=spec, k=k: a == len(self.answers(s, k)["bits"]),
                          reconfig.build, spec.graph, k, summary=lambda r: r.order)
            if r is not None:
                loop.call(lambda a, s=spec, k=k: a == self.hamiltonian(s, k),
                          reconfig.is_hamiltonian, r)

    def explore(self, loop, spec: GraphSpec) -> None:
        """Build D_n(G) and run every analysis and export call on it."""
        want = functools.partial(self.answers, spec, spec.n)

        def order():
            return len(want()["bits"])

        def degrees():
            return want()["degrees"]

        def euler():
            odd = int((degrees() % 2).sum())
            return {0: "eulerian", 2: "trail-only"}.get(odd, "neither")

        def distance(a, b):
            # with k = n the distance is exactly |A xor B| (add B - A, then drop
            # A - B), which also fixes its parity to that of |A| - |B|
            return int(want()["bits"][a] ^ want()["bits"][b]).bit_count()

        r = loop.call(lambda a: a == (order(), want()["size"]), reconfig.build, spec.graph,
                      spec.n, summary=lambda r: (r.order, r.size))
        if r is None:
            return
        loop.call(lambda a: a == want()["parts"], reconfig.bipartition, r,
                  summary=lambda p: (len(p[0]), len(p[1])))
        loop.call(lambda a: a == (int(degrees().min()), int(degrees().max())),
                  reconfig.degree_extremes, r)
        # D_n(G) is connected: every dominating set grows to V one vertex at a time
        loop.call(lambda a: a == 1, reconfig.connected_components, r, summary=lambda c: c[0])
        loop.call(lambda a: a == euler(), reconfig.euler_status, r)
        loop.call(lambda a: a == bool((degrees() == degrees()[0]).all()), reconfig.is_regular, r)
        for u, w in self.queries if spec in self.queried else ():
            a, b = int(u * r.order), int(w * r.order)
            loop.call(lambda d, a=a, b=b: d == distance(a, b), reconfig.distance, r, a, b)
        # one '[' per node and per edge plus the two enclosing lists; one DOT line each
        if spec not in self.exported:
            return
        loop.call(lambda c: c == order() + want()["size"] + 2, reconfig.to_json, r,
                  summary=lambda text: text.count("["))
        loop.call(lambda c: c == order() + want()["size"] + 2, reconfig.to_dot, r,
                  summary=lambda text: text.count("\n"))

    @functools.cache
    def hamiltonian(self, spec: GraphSpec, k: int) -> bool:
        bits = [int(b) for b in self.answers(spec, k)["bits"]]
        index = {b: i for i, b in enumerate(bits)}
        adj = [{index[b ^ (1 << v)] for v in range(spec.n) if b ^ (1 << v) in index} for b in bits]
        return ref.has_hamiltonian_cycle(adj)


# ---------------------------------------------------------------------------
# sparse_enum
# ---------------------------------------------------------------------------

TREE_SETS = 2000


class SparseEnum(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        # (graph, gamma, the k values enumerated, the k built)
        self.cases = [
            (family("path", 28), 10, (10, 11), 11),
            (family("cycle", 30), 10, (10, 11), 11),
            # n = 26, the smallest ladder above the scan cap: at k = gamma + 2
            # L_14 gave 30k sets in a quarter of a second, L_13 6k in a tenth
            (family("ladder", 13), 7, (7, 8, 9), 8),
            (family("ladder", 15), 8, (8,), None),
            (family("ladder", 16), 9, (9,), None),
        ]
        # gamma only: at most a few hundred sets, while the search still
        # walks a large tree of dead branches (P_33 gives 1 set).  P_36 and
        # P_39 are left out and P_40 at k = 14 is a probe, so that no call
        # takes much more than a quarter of a second: P_40 alone took two
        self.cases += [(family(kind, n), -(-n // 3), (-(-n // 3),), None)
                       for kind, sizes in (("path", (29, 30, 31, 32, 33)),
                                           ("cycle", (28, 29, 31, 32, 33)))
                       for n in sizes]
        # random trees, redrawn until D_{gamma+1} has at most TREE_SETS nodes
        # (the tree DP counts them first); unbounded, one tree in ten gives
        # thousands to tens of thousands of sets and moves time and memory
        self.tree_counts = {}
        # at n = 28, so that every tree call stays below the median call:
        # at n = 36 a tree's calls took from 5 to 90 ms, by seed, and moved
        # op_p50_ms by a quarter
        while len(self.tree_counts) < 2:
            spec = GraphSpec(f"T28.{len(self.tree_counts)}", 28, ref.random_tree(self.rng, 28))
            counts = ref.tree_domination_counts(spec.n, spec.edges)
            gamma = next(j for j, c in enumerate(counts) if c)
            if sum(counts[: gamma + 2]) <= TREE_SETS:
                self.tree_counts[spec] = counts
                self.cases.append((spec, gamma, (gamma, gamma + 1), gamma + 1))
        self.specs = [case[0] for case in self.cases]

    def expected_counts(self, spec: GraphSpec):
        """d(G, j) where an independent count exists, else None."""
        if spec.family in ("path", "cycle"):
            return triangle_row(spec)
        if spec.family is None:
            return self.tree_counts[spec]
        return None

    def check_family(self, spec, gamma, k, bits) -> bool:
        nbhd = ref.closed_nbhd(spec.n, spec.edges)
        if len(set(bits)) != len(bits):
            return False
        if not all(b.bit_count() <= k and ref.dominates(nbhd, b) for b in bits):
            return False
        counts = self.expected_counts(spec)
        if counts is not None:
            return len(bits) == sum(counts[: k + 1])
        return min(b.bit_count() for b in bits) == gamma

    def run_round(self, loop):
        found = {}
        for spec, gamma, ks, built in self.cases:
            for k in ks:
                found[k] = loop.call(lambda a, s=spec, g=gamma, k=k: self.check_family(s, g, k, a),
                                     domination.enumerate_dominating, spec.graph, k,
                                     cap=ENUM_CAP, method="prune", summary=set_bits)
            if built is not None:
                loop.call(lambda a, fam=found[built]: a == self.reconfig_summary(fam),
                          reconfig.build, spec.graph, built, cap=ENUM_CAP,
                          summary=lambda r: (r.order, r.size))

    @staticmethod
    def reconfig_summary(family):
        """(order, size) of D_k from its node list, by single-vertex toggles."""
        if family is None:
            return None
        nodes = set(set_bits(family))
        size = sum(1 for b in nodes for v in range(b.bit_length()) if b >> v & 1 and b ^ (1 << v) in nodes)
        return len(nodes), size


# ---------------------------------------------------------------------------
# verify_report
# ---------------------------------------------------------------------------

# verify --suite <name> record counts (pass, erratum, fail) at the commit that
# defined the benchmark, for any seed and any --max-n in 12..16 (9..16 for
# paths)
VERIFY_COUNTS = {
    "all": (52, 7, 0),
    "complete": (11, 0, 0),
    "paths": (24, 3, 0),
    "cycles": (12, 4, 0),
    "products": (3, 0, 0),
    "parity": (2, 0, 0),
}
PATH_SEEDS, CYCLE_SEEDS = (1, 3, 5), (1, 3, 7)


class VerifyReport(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        self.scratch = None
        rng = self.rng
        # every suite of --suite all, one call each, so that each call is at
        # most about a second and has its own chance at a quiet moment of the
        # host (--suite all --max-n 12 is a probe).  --max-n from 12 to 16,
        # but 9 for paths: from 10 up, its distance-two record alone took a
        # second, half the round.  The record counts are the same for all
        self.commands = [(["verify", "--suite", suite, "--max-n", str(max_n)], suite)
                         for suite, max_n in (("complete", 16), ("paths", 9), ("cycles", 16),
                                              ("products", 15), ("parity", 12))]
        for cmd, _ in self.commands:
            cmd += ["--seed", str(rng.randrange(1000)), "--format", "json"]
        for family_name, formats in (("path", ("table", "csv")), ("cycle", ("json", "csv"))):
            for fmt in formats:
                self.commands.append((["count", "--family", family_name, "--n-max", "200",
                                       "--format", fmt], "triangle"))
        for family_name, formats in (("path", ("table", "csv")), ("cycle", ("json", "table"))):
            for fmt in formats:
                self.commands.append((["count", "--family", family_name, "--n-max", "4000",
                                       "--sums", "--format", fmt], "sums"))
        # n from 8: the calls on smaller D_n take a few milliseconds, and with
        # them the median call was one whose time varied most from run to run
        self.commands += [(["reconfig", "--family", kind, "--n", str(n), "--stats"], "stats")
                          for kind in ("path", "cycle") for n in range(8, 16)]

    def setup(self):
        if self.scratch is None:
            self.scratch = Scratch().open()

    def inputs_ok(self):
        return True

    def close(self):
        if self.scratch is not None:
            self.scratch.close()
            self.scratch = None

    def run_round(self, loop):
        out = self.scratch.path("out.txt")
        for argv, kind in self.commands:
            loop.call(lambda a, argv=argv, kind=kind: self.check_output(argv, kind, a),
                      cli.main, argv + ["--output", out], summary=lambda code: (code, take_text(out)))

    @staticmethod
    def check_output(argv, kind, answer) -> bool:
        code, text = answer
        if code != 0:
            return False
        if argv[0] == "verify":
            return verify_counts(text) == VERIFY_COUNTS[kind]
        family = argv[argv.index("--family") + 1]
        seeds = PATH_SEEDS if family == "path" else CYCLE_SEEDS
        if kind == "stats":
            n = int(argv[argv.index("--n") + 1])
            return text.split("\n")[0].split() == ["order", str(ref.tribonacci(seeds, n)[-1])]
        n_max = int(argv[argv.index("--n-max") + 1])
        fmt = argv[argv.index("--format") + 1]
        first = 1 if family == "path" else 3
        # the order sequence is the tribonacci sequence from the family seeds,
        # and a triangle's row sums are that sequence
        orders = ref.tribonacci(seeds, n_max)
        lines = text.splitlines()
        if kind == "sums":
            if fmt == "json":
                return json.loads(text) == {"family": family, "orders": orders}
            if fmt == "csv":
                return lines[0] == "family,n,order" and [int(v.split(",")[2]) for v in lines[1:]] == orders
            return [int(v) for v in text.split(",")] == orders
        sums = {n: 0 for n in range(first, n_max + 1)}
        if fmt == "json":
            for n, row in json.loads(text)["rows"].items():
                sums[int(n)] += sum(row)
        elif fmt == "csv":
            for line in lines[1:]:
                _, n, _, count = line.split(",")
                sums[int(n)] += int(count)
        else:
            for line in lines:
                n, row = line.split(":")
                sums[int(n)] += sum(int(c) for c in row.split())
        return list(sums.values()) == orders[first - 1:]


def set_bits(family) -> list[int]:
    return [s.bits for s in family.sets]


def verify_counts(report: str) -> tuple[int, int, int]:
    counts = json.loads(report)["counts"]
    return counts["pass"], counts["erratum"], counts["fail"]


def take_text(path: str) -> str:
    """Read a CLI output file and remove it, so the next call starts without one."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


class Scratch:
    """A fresh directory for CLI output under the checkout's ignored build
    directory; close() removes it, and the build directory if it made it."""

    def open(self) -> "Scratch":
        self.made_build_dir = not os.path.isdir(BUILD_DIR)
        os.makedirs(BUILD_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="perfbench-", dir=BUILD_DIR)
        return self

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def close(self) -> None:
        shutil.rmtree(self.dir)
        if self.made_build_dir:
            os.rmdir(BUILD_DIR)

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()


WORKLOADS = {
    "subset_oracle": SubsetOracle,
    "reconfig_space": ReconfigSpace,
    "sparse_enum": SparseEnum,
    "verify_report": VerifyReport,
}
