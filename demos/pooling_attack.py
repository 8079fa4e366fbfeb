"""Move every patch representation without changing the network output.

Any layer that sums per-patch maps over a strictly shrinking cover has
a positive-dimensional space of zero-sum perturbations: add m_alpha
after each patch map with the m's summing to zero inside every output
element, and the aggregation cancels them exactly.  The perturbation
is drawn from the exact rational null space of the patch/output
incidence matrix, then doubled until its p-norm clears the requested
displacement.
"""

from coversheaf.network import build_cnn
from coversheaf.witnesses import adversarial_attack


def main() -> None:
    net = build_cnn(4)  # 4x4 grid, sum-pooled 2x2 blocks, dense head
    print("stage sizes:",
          [len(c.memberships) for c in net.sequence.stages])

    for delta in (1.0, 10.0, 100.0):
        spec, rep = adversarial_attack(net, layer_index=0, p=2.0,
                                       delta=delta, seed=0)
        m = rep.measured
        print(f"\ndelta={delta:g}:")
        print(f"  null space dimension: {m['null_space_dim']}")
        print(f"  representation displacement: {m['displacement']:.6f}")
        print(f"  zero sums exact: {m['zero_sum_exact']}")
        print(f"  worst output change over 20 inputs: "
              f"{m['max_output_gap']:.2e}")
        print(f"  verdict: {rep.verdict}")


if __name__ == "__main__":
    main()
