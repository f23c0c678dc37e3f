"""Shared test fixtures: small hand-built roux instances, the JSON files
of roux and two-graphs, covers of enumerated groups, closed copies of
the built-in covers, random cover elements, the benchmark's SU(3,3)
generating set and a call recorder."""

import sys

import numpy as np

from rouxforge.field import FieldSpec
from rouxforge.group import GroupAction, MatOps, closure, stabilizer
from rouxforge.radical import CoverData
from rouxforge.roux import RouxMatrix


def paley6_roux(r: int = 2) -> RouxMatrix:
    """The 6-point Paley-type roux: ``paley_exponents(5)``, its exponents
    scaled from C_4 to C_r for r = 2 or 4.

    Over C_2 it has parameters (2, 2); doubling the exponents embeds it
    into C_4 with parameters (2, 0, 2, 0).  Its nontrivial signature is a
    symmetric conference matrix, so the lines form a (6, 3) ETF.
    """
    return RouxMatrix(6, r, np.array(paley_exponents(5)) * r // 4)


def all_ones_roux(n: int) -> RouxMatrix:
    """J - I as a roux over the trivial group C_1."""
    return RouxMatrix(n, 1, [[0] * n for _ in range(n)])


def paley_exponents(p: int) -> list[list[int]]:
    """The Paley-type roux over C_4 for a prime p = 1 mod 4: exponent 0 on
    quadratic residue differences, 2 on non-residues, and point p as
    infinity with exponent 0 to and from every other point.  Its
    parameters are ((p-1)/2, 0, (p-1)/2, 0)."""
    residues = {(x * x) % p for x in range(1, p)}
    n = p + 1
    exps = [[0] * n for _ in range(n)]
    for i in range(p):
        for j in range(p):
            if i != j:
                exps[i][j] = 0 if (i - j) % p in residues else 2
    return exps


def roux_json(B: RouxMatrix) -> dict:
    """The roux file of B: null on the diagonal, exponents elsewhere."""
    entries = [[None if i == j else int(B.exps[i, j]) for j in range(B.n)] for i in range(B.n)]
    return {"n": B.n, "r": B.r, "entries": entries}


def two_graph_json(tg) -> dict:
    """The two-graph file of tg, triples sorted."""
    return {"n": tg.n, "triples": sorted(sorted(t) for t in tg.triples)}


def random_outside_stabilizer(cover, rng, word_length: int = 24):
    """Random cover element outside the stabilizer, as a generator word."""
    ops = cover.ops
    gens = cover.action.group.generators
    while True:
        g = ops.identity
        for _ in range(word_length):
            g = ops.mul(g, rng.choice(gens))
        if g not in cover.stab:
            return g


def cover_of(action) -> CoverData:
    """Cover data for an enumerated group's action, with the stabilizer
    of the first point found by enumeration."""
    return CoverData(action, stabilizer(action, action.points[0]))


def materialized(cover) -> CoverData:
    """The same cover with its group closed: the built-in covers act
    through an unenumerated generated group."""
    G = cover.action.group
    action = GroupAction(closure(G.generators, G.ops, name=G.name), cover.action.points, cover.action.act)
    return CoverData(action, cover.stab, cover.base_point)


def record_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` in every rouxforge module that binds it (some
    bind it with ``from ... import``); the returned list collects the
    result of each call."""
    original = getattr(module, name)
    results = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rouxforge" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return results


# bench/workloads.su33_generating_set(1): the torus element, two root
# elements and the Weyl element of SU(3,3), conjugated by a random word,
# plus one more random word.  Entries are codes a0 + 3 a1 of F_9 = F_3[i].
SU33_BENCH_GENERATORS = [
    [[8, 1, 6], [0, 6, 5], [0, 0, 4]],
    [[4, 2, 8], [5, 3, 0], [2, 3, 5]],
    [[7, 3, 6], [3, 7, 3], [6, 3, 7]],
    [[2, 0, 0], [1, 1, 0], [2, 1, 2]],
    [[0, 0, 7], [0, 6, 2], [5, 4, 5]],
]


def su33_bench_generators() -> tuple:
    """The benchmark's SU(3,3) backend and generating set."""
    return MatOps(FieldSpec(3, 2), 3), [tuple(map(tuple, g)) for g in SU33_BENCH_GENERATORS]


def su33_bench_spec() -> dict:
    """The benchmark's SU(3,3) generating set as a JSON group spec."""
    ops, gens = su33_bench_generators()
    entries = [[list(ops.spec.decode(e)) for row in g for e in row] for g in gens]
    return {"kind": "matrix", "field": {"p": 3, "k": 2}, "dim": 3, "generators": entries}


def su3_spec(q: int) -> dict:
    """A JSON group spec of SU(3,q) on its isotropic points: the generators
    of ``families.su3_cover(q)``, entries as coefficient lists."""
    from rouxforge.families import su3_cover

    cover = su3_cover(q)[0]
    spec = cover.ops.spec
    entries = [[list(spec.decode(e)) for row in g for e in row] for g in cover.action.group.generators]
    field = {"p": spec.p, "k": spec.k, "irreducible": list(spec.irreducible)}
    return {"kind": "matrix", "field": field, "dim": 3, "generators": entries, "action": "isotropic"}
