"""Seeded inputs for the two benchmark workloads.

`build(workload, seed, workdir)` writes the JSON files the `mldhat` CLI reads
and returns the ops: one command line each, with the values the checker
expects.  Nothing here imports `mldhat`; expected values come from theory
(lambda = 0 families, the ADE table, the lambda = 1 cone), from the
benchmark's own arithmetic (see checker.py), or from `pool.json`, the
regression references recorded by `record_pool.py`.

The seed changes every input file.  Pool entries are moved by a seeded
lattice automorphism: a signed coordinate permutation for cones, a variable
permutation for supports.  Both leave every reference value unchanged
(lambda and mld-hat are lattice invariants; Hilbert elements and dual rays
move with the cone) and leave the search work unchanged up to tie order, so
each workload costs the same under every seed and the spread between seeds
is the machine's.  The seed also picks the face queries, shuffles rays and
monomials inside each file, and shuffles the op order.

Each workload's mix keeps its median and 90th-percentile op inside one
group of similar ops, not on the edge between a cheap and a costly group,
so that the percentiles do not jump between groups from run to run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import checker

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "pool.json")

WORKLOADS = ("toric-cones", "hyper-oracle")

FACES = 35  # --face queries on facets and rays of the rank-3 cones
DUAL_RANK3 = 10  # dual queries on the first rank-3 cones; every rank-4 cone gets one

LAMBDA_ONE_CONE = ((-3, 1, 2), (-1, -3, -4), (-1, -1, -2))
SQUARE_CONE = ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))

# The program gets the generated inputs, not the benchmark's seed: with a
# fixed --seed its sampler draws, and so its work, depend on the inputs only.
CLI_SEED = "0"

# m = max(alpha) + offset for the three m-dependent oracle ops of a pair
M_OFFSETS = (2, 4, 6)
ORACLE_PRIMES = (10007, 101)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checker expects of its report."""

    index: int
    kind: str  # toric | face | hyper | staircase | torus | expand | hilbert | dual
    argv: tuple[str, ...]
    expect: dict


def ade_table():
    """(name, exponents, lambda) rows; the values are acceptance criterion 7."""

    def ade(kind, k=None, nvars=3):
        quad = [tuple(2 if j == i else 0 for j in range(nvars)) for i in range(2, nvars)]
        pad = [0] * (nvars - 2)
        lead = {
            "A": lambda: [(k + 1, 0, *pad), (0, 2, *pad)],
            "D": lambda: [(k - 1, 0, *pad), (1, 2, *pad)],
            "E6": lambda: [(4, 0, *pad), (0, 3, *pad)],
            "E7": lambda: [(3, 1, *pad), (0, 3, *pad)],
            "E8": lambda: [(5, 0, *pad), (0, 3, *pad)],
        }[kind]()
        return [tuple(r) for r in lead] + quad

    rows = [(f"A{k}", ade("A", k), 0) for k in (1, 2, 5)]
    rows += [(f"D{k}", ade("D", k), 1) for k in (4, 5, 6, 7)]
    rows += [(f"D{k}/4vars", ade("D", k, nvars=4), 0) for k in (5, 6)]
    rows += [("E6", ade("E6"), 1), ("E7", ade("E7"), 2), ("E8", ade("E8"), 2)]
    return rows


def load_pool():
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def signed_permutation(rng, n):
    """A lattice automorphism of Z^n that preserves the standard pairing."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(n))


def variable_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return lambda v: tuple(v[perm[i]] for i in range(n))


def facets(rays):
    """Ray-index sets of the facets of a full-dimensional cone."""
    return sorted(
        tuple(k for k, r in enumerate(rays) if checker.dot(normal, r) == 0)
        for normal in checker.facet_normals(rays)
    )


class _Writer:
    """Writes input files into `workdir` and numbers the ops."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ops: list[Op] = []
        os.makedirs(workdir, exist_ok=True)

    def file(self, stem, payload):
        path = os.path.join(self.workdir, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def cone(self, stem, rays, rng):
        rays = [list(r) for r in rays]
        rng.shuffle(rays)
        return self.file(stem, {"lattice_rank": len(rays[0]), "rays": rays})

    def support(self, stem, rows, rng):
        rows = [list(r) for r in rows]
        rng.shuffle(rows)
        return self.file(stem, {"vars": len(rows[0]), "support": rows})

    def op(self, kind, argv, **expect):
        argv = ("--seed", CLI_SEED) + tuple(argv)
        self.ops.append(Op(index=len(self.ops), kind=kind, argv=argv, expect=expect))


def _toric_search(w: _Writer, pool, rng):
    rank3 = []  # (path, rays in CLI order) for the face queries
    families = [
        ("surface", pool["surfaces"], ["--no-fast-paths"], "criterion 2 (theory)"),
        ("simplicial", pool["simplicial_isolated"], ["--no-fast-paths"], "criterion 3 (theory)"),
        ("random", pool["toric_random"], [], "regression reference"),
        ("lambda1", [{"rays": LAMBDA_ONE_CONE, "lambda": 1}], [], "test suite"),
        ("square", [{"rays": SQUARE_CONE, "lambda": 0}], [], "test suite"),
    ]
    for stem, entries, flags, source in families:
        for k, entry in enumerate(entries):
            n = len(entry["rays"][0])
            move = signed_permutation(rng, n)
            rays = tuple(move(r) for r in entry["rays"])
            lam = entry.get("lambda", 0)
            path = w.cone(f"{stem}{k}", rays, rng)
            w.op("toric", ["toric", "--cone", path, *flags],
                 rays=rays, lam=lam, mld=lam + n, source=source)
            if n == 3:
                rank3.append((path, tuple(sorted(rays))))
    for k in range(FACES):
        path, rays = rank3[rng.randrange(len(rank3))]
        if rng.random() < 0.5:
            face = rng.choice(facets(rays))
        else:
            face = (rng.randrange(len(rays)),)
        w.op("face", ["toric", "--cone", path, "--face", ",".join(map(str, face))],
             rays=rays, lam=0, mld=3, dim=len(face),
             source="faces of dimension <= 2 (theory)")


def _hyper_scan(w: _Writer, pool, rng):
    rows = [(name, expo, lam, "EXACT", "ADE table (acceptance suite)")
            for name, expo, lam in ade_table()]
    rows += [(f"pool{k}", e["support"], e["lambda"], e["status"], "regression reference")
             for k, e in enumerate(pool["supports"])]
    for k, (name, expo, lam, status, source) in enumerate(rows):
        move = variable_permutation(rng, len(expo[0]))
        support = tuple(move(r) for r in expo)
        path = w.support(f"support{k}", support, rng)
        w.op("hyper", ["hyper", "--support", path, "--certify"],
             support=support, lam=lam, dim=len(support[0]) - 1, status=status,
             name=name, source=source)


def _oracle_verify(w: _Writer, pool, rng):
    for k, pair in enumerate(pool["oracle_pairs"]):
        move = variable_permutation(rng, len(pair["alpha"]))
        support = tuple(move(r) for r in pair["support"])
        alpha = move(pair["alpha"])
        path = w.support(f"pair{k}", support, rng)
        a = ",".join(map(str, alpha))
        # the offsets rotate with the pair, not the seed, so the cost stays put
        m_stair_big, m_stair_small, m_expand = (
            max(alpha) + M_OFFSETS[(k + i) % 3] for i in range(3)
        )
        for m, prime in ((m_stair_big, ORACLE_PRIMES[0]), (m_stair_small, ORACLE_PRIMES[1])):
            w.op("staircase", ["oracle", "staircase", "--support", path, "--alpha", a,
                               "--m", str(m), "--prime", str(prime), "--trials", "50"],
                 support=support, alpha=alpha, m=m, prime=prime, trials=50)
        for prime in ORACLE_PRIMES:
            w.op("torus", ["oracle", "torus-point", "--support", path, "--alpha", a,
                           "--prime", str(prime), "--trials", "50"],
                 support=support, alpha=alpha, prime=prime)
        w.op("expand", ["oracle", "expand", "--support", path, "--alpha", a, "--m", str(m_expand)],
             support=support, alpha=alpha, m=m_expand)


def _cone_structure(w: _Writer, pool, rng):
    entries = pool["cones_rank3"] + pool["cones_rank4"]
    for k, entry in enumerate(entries):
        n = len(entry["rays"][0])
        move = signed_permutation(rng, n)
        rays = tuple(move(r) for r in entry["rays"])
        path = w.cone(f"cone{k}", rays, rng)
        hilbert = tuple(sorted(move(u) for u in entry["hilbert"]))
        w.op("hilbert", ["hilbert", "--cone", path], rays=rays, elements=hilbert)
        if n == 4 or k < DUAL_RANK3:
            w.op("dual", ["dual", "--cone", path], rays=rays)


# Two workloads, each one long run over two op families: on a shared
# 2-vCPU machine the speed drifts by about 20% over tens of seconds, and only
# long runs average that out within the run budget.
BUILDERS = {
    "toric-cones": (_toric_search, _cone_structure),
    "hyper-oracle": (_hyper_scan, _oracle_verify),
}


def build(workload, seed, workdir):
    """Write the inputs of `workload` for `seed` and return its ops in run order."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    w = _Writer(workdir)
    pool = load_pool()
    for part in BUILDERS[workload]:
        part(w, pool, rng)
    order = list(w.ops)
    rng.shuffle(order)
    return order
