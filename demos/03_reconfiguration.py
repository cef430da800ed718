"""Walkthrough: the k-dominating graph D_k(G).

Nodes are dominating sets of cardinality at most k; edges are single
vertex additions or deletions.  With k = n the graph is connected and
bipartite by cardinality parity, and never Hamiltonian (its two parts
always differ in size because the order is odd).

Run:  python demos/03_reconfiguration.py
"""

from domgraph import (
    VertexSubset,
    bipartition,
    build,
    connected_components,
    degree_extremes,
    distance,
    euler_status,
    is_hamiltonian,
    is_regular,
    make_family,
)
from domgraph.reconfig import to_dot


def summarize(name, r):
    x, y = bipartition(r)
    lo, hi = degree_extremes(r)
    print(
        f"{name:<10} order={r.order:<5} size={r.size:<5} parts={len(x)}/{len(y)}"
        f" degrees {lo}..{hi} components={connected_components(r)[0]}"
        f" regular={is_regular(r)} euler={euler_status(r)}"
    )


print("=== D_n(G) for small families ===")
for kind, n in (("complete", 3), ("complete", 4), ("path", 4), ("cycle", 4)):
    summarize(f"{kind[0].upper()}_{n}", build(make_family(kind, n)))

print()
print("=== walking between dominating sets of P_5 ===")
r = build(make_family("path", 5))
a = r.node_id(VertexSubset.from_vertices([1, 4]).bits)
b = r.node_id(VertexSubset.from_vertices([2, 4]).bits)
c = r.node_id(VertexSubset.from_vertices([2, 5]).bits)
print("distance({1,4}, {2,4}) =", distance(r, a, b), " (they share one vertex)")
print("distance({1,4}, {2,5}) =", distance(r, a, c), " (disjoint, so farther)")

print()
print("=== Hamiltonicity needs equal parts ===")
print("D_3(K_3) hamiltonian?", is_hamiltonian(build(make_family("complete", 3))))
print("D_2(K_3) hamiltonian?", is_hamiltonian(build(make_family("complete", 3), 2)),
      " (it is a 6-cycle)")

print()
print("=== k below the domination number gives an empty graph, not an error ===")
probe = build(make_family("path", 9), 2)
print("k=2 < gamma(P_9)=3:", "empty, order 0" if probe.order == 0 else "nodes exist")

print()
print("=== DOT export of D_3(P_3) ===")
print(to_dot(build(make_family("path", 3))), end="")
