"""Shared test fixtures: small hand-built roux instances and random
cover elements."""

from rouxforge.field import FieldSpec, quadratic_residue_character
from rouxforge.roux import RouxMatrix


def paley6_roux(r: int = 2) -> RouxMatrix:
    """The 6-point Paley-type roux: entries from the quadratic character of F_5.

    Over C_2 it has parameters (2, 2); doubling the exponents embeds it
    into C_4 with parameters (2, 0, 2, 0).  Its nontrivial signature is a
    symmetric conference matrix, so the lines form a (6, 3) ETF.
    """
    F5 = FieldSpec(5)
    chi = quadratic_residue_character(F5)
    n = 6
    exps = [[0] * n for _ in range(n)]
    for i in range(5):
        for j in range(5):
            if i != j:
                diff = F5.element(i) - F5.element(j)
                exps[i][j] = 0 if chi.sign(diff) == 1 else r // 2
    # vertex 5 plays the role of infinity: all-identity row/column
    return RouxMatrix(n, r, exps)


def random_outside_stabilizer(cover, rng, word_length: int = 24):
    """Random cover element outside the stabilizer, as a generator word."""
    ops = cover.ops
    gens = cover.action.group.generators
    while True:
        g = ops.identity
        for _ in range(word_length):
            g = ops.mul(g, rng.choice(gens))
        if g not in cover.stab_set:
            return g
