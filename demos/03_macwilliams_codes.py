"""Weight enumerators, the transform to the dual, and the Z4 / binary
Gray identification.

Run:  python3 demos/03_macwilliams_codes.py
"""

from fractions import Fraction

from schemekit import (
    Code,
    GaussRat,
    dual_code,
    eigenmatrix,
    gray_image,
    gray_lee_check,
    group_scheme,
    macwilliams_transform,
    one_class,
    substitute_linear,
    weight_enumerator,
    z4_enumerators,
)

binary = one_class(2)

# The even-weight code of length 3 and its dual, the repetition code.
C = Code([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], binary)
W = weight_enumerator(C)
print("even-weight code W(s0, s1) =", W.to_str())

P = eigenmatrix(binary)
W_dual = macwilliams_transform(W, P, 2, len(C))
print("transform          =", W_dual.to_str())
print("enumerator of dual =", weight_enumerator(dual_code(C)).to_str())


def by_substitution(W, size):
    """The transform by its definition: substitute t -> P^-1 t into W
    and scale by 2^n/|C|, with no induced matrix involved."""
    return substitute_linear(W, P.inverse()) * GaussRat(
        Fraction(2 ** W.degree(), size))


print("substitution t -> P^-1 t agrees:", W_dual == by_substitution(W, len(C)))

# The transform needs no additivity; here is a 3-word non-linear code.
ragged = Code([(0, 0), (0, 1), (1, 0)], binary)
t = macwilliams_transform(weight_enumerator(ragged), P, 2, len(ragged))
print("\nnon-additive code transform:", t.to_str())
print("matches substitution:",
      t == by_substitution(weight_enumerator(ragged), len(ragged)))

# Codes over Z4: complete, symmetrized, and Lee enumerators.
z4 = group_scheme([4])
K = Code([(0, 0), (1, 1), (2, 2), (3, 3)], z4)
enums = z4_enumerators(K)
print("\nZ4 diagonal code:")
print("  complete:    ", enums.complete.to_str(["x0", "x1", "x2", "x3"]))
print("  symmetrized: ", enums.symmetrized.to_str(["a", "b", "c"]))
print("  lee:         ", enums.lee.to_str(["s", "t"]))

# The Gray identification 0->00, 1->01, 2->11, 3->10 sends Lee weight
# to binary Hamming weight, so the Lee enumerator is the binary weight
# enumerator of the Gray image.
G = gray_image(K)
print("gray image words:", sorted(G.words))
print("lee == W(gray image):", enums.lee == weight_enumerator(G))
print("Gray/Lee duality identity:", gray_lee_check(K))
