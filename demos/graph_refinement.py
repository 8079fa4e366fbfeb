"""Color refinement sees exactly as far as depth-k unfolding trees.

The demonstration pins the classic pair: a six-cycle and two disjoint
triangles have identical unfolding trees at every depth (every node
sees an infinite path), while a path and a triangle already differ at
depth 1.
"""

from coversheaf.graphs import (compare_graphs, cycle_graph, disjoint_union,
                               partition_ids, path_graph, unfolding_codes,
                               wl_refine, wl_equals_unfolding)


def main() -> None:
    c6 = cycle_graph(6)
    cc = disjoint_union(cycle_graph(3), cycle_graph(3))
    for k in (1, 4, 8):
        res = compare_graphs(c6, cc, k)
        print(f"C6 vs C3+C3 at depth {k}: "
              f"{'split' if res.distinguishable else 'identical multisets'}")

    res = compare_graphs(path_graph(3), cycle_graph(3), 1)
    print(f"\nP3 vs C3 at depth 1: code {res.evidence['code']!r} appears "
          f"{res.evidence['count_first']} vs {res.evidence['count_second']} "
          "times")

    p4 = path_graph(4)
    print("\nP4 refinement rounds:")
    for r, colors in enumerate(wl_refine(p4, 3).rounds):
        print(f"  round {r}: partition {partition_ids(colors)}")
    print("depth-3 codes give the same partition:",
          partition_ids(unfolding_codes(p4, 3))
          == partition_ids(wl_refine(p4, 3).rounds[3]))
    print("agreement holds for all depths up to 4:",
          all(wl_equals_unfolding(p4, k) for k in range(5)))


if __name__ == "__main__":
    main()
