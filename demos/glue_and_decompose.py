"""Compatible locals glue by inclusion-exclusion; zero sums split in pairs.

First half: restrict a hidden polynomial to a three-element cover,
forget the original, and rebuild it from the locals alone.  Second
half: a family of locals whose zero-padded extensions sum to zero
decomposes into antisymmetric pairwise terms supported on overlaps,
with exact rational coefficients throughout.
"""

from fractions import Fraction

from coversheaf.sections import (compose_coord, polynomial_section,
                                 sections_equal, zero_pad_map)
from coversheaf.topology import MarkedSpace, make_cover
from coversheaf.witnesses import (cosheaf_kernel_decompose,
                                  glue_inclusion_exclusion)


def main() -> None:
    space = MarkedSpace(n_points=3, fiber_dims=(1, 1, 1))
    cover = make_cover(space, [[1, 2], [2, 3], [1, 3]])
    fibers = space.fiber_dims
    U = frozenset({1, 2, 3})

    # hidden: f(y) = y1*y2 + 3*y3, never shown to the gluing code
    hidden = polynomial_section(3, 1, [{(1, 1, 0): Fraction(1),
                                        (0, 0, 1): Fraction(3)}])
    locals_ = [compose_coord(hidden, zero_pad_map(fibers, el, U))
               for el in cover.memberships]
    glued = glue_inclusion_exclusion(locals_, cover)
    res = sections_equal(glued, hidden, n_samples=200, tol=1e-9, seed=1)
    print(f"glued section matches the hidden one: {res.equal} "
          f"(max deviation {res.max_deviation:.2e})")

    # zero-sum family: +y2 on the first element, -y2 on the second, as
    # one coefficient table per output over each element's coordinates
    chain = make_cover(space, [[1, 2], [2, 3]])
    f0 = [{(0, 1): Fraction(1)}]
    f1 = [{(1, 0): Fraction(-1)}]
    family = cosheaf_kernel_decompose([f0, f1], chain)
    mems = chain.memberships
    print("\npairwise decomposition of the zero-sum family:")
    for (a, b), coeffs in sorted(family.items()):
        where = sorted(mems[a] & mems[b])
        print(f"  f[{a},{b}] on points {where}: {coeffs[0]}")
    anti = all(family[(b, a)][0] == {m: -c for m, c in coeffs[0].items()}
               for (a, b), coeffs in family.items())
    print("antisymmetric:", anti)


if __name__ == "__main__":
    main()
