"""Regenerate pool.json: the seeded pool inputs and their regression references.

Run from the repository root:

    python3 perfbench/record_pool.py

The inputs come from MASTER_SEED alone, so a rerun rewrites the same inputs.
The reference values are whatever the program computes when this script
runs; they are regression references, not theory.  Values that theory fixes
(lambda = 0 families, the ADE table, the lambda = 1 cone) live in corpus.py
instead.  Every hypersurface reference is recomputed under a few variable orders and
sampler seeds, and recording stops if any of them disagrees, because the
benchmark permutes variables and passes its own seed.
"""

from __future__ import annotations

import json
import os
import random
import sys
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mldhat.cones import Cone, ConeError, has_isolated_fixed_point, is_simplicial  # noqa: E402
from mldhat.hilbert import hilbert_basis  # noqa: E402
from mldhat.hypersurface import SupportError, hypersurface_report, validate_support  # noqa: E402
from mldhat.lattice import rank_of  # noqa: E402
from mldhat.oracle import OracleConfig, make_torus_sampler  # noqa: E402
from mldhat.toric import mld_at_point  # noqa: E402

from corpus import POOL_FILE, ade_table  # noqa: E402

MASTER_SEED = 2017
SIZES = {
    "surfaces": 50,  # the criterion-2 construction: rank 2, entries in [-8, 8]
    "toric_random": 14,  # rank 3, entries in [-3, 3], 3 or 4 generators
    "simplicial_isolated": 8,  # the criterion-3 construction
    "supports": 128,  # 2-4 variables, entries 0-3, 2-4 monomials
    "oracle_random": 28,  # supports from above with 2-3 variables left
    "cones_rank3": 40,  # entries in [-9, 9], 3 or 4 generators
    "cones_rank4": 30,  # entries in [-6, 6], 4 or 5 generators
}
CHECK_ORDERS = 3


def random_cone(rng, n, bound):
    while True:
        gens = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(rng.randint(n, n + 1))]
        gens = [g for g in gens if any(g)]
        if not gens or rank_of(gens) < n:
            continue
        try:
            return Cone.from_generators(n, gens)
        except ConeError:
            continue


def surface(rng):
    """The acceptance-suite criterion-2 construction: lambda = 0 by theorem."""
    while True:
        g1 = tuple(rng.randint(-8, 8) for _ in range(2))
        g2 = tuple(rng.randint(-8, 8) for _ in range(2))
        if not any(g1) or not any(g2):
            continue
        try:
            c = Cone.from_generators(2, [g1, g2])
        except ConeError:
            continue
        if c.is_full_dimensional:
            return c


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for col in range(n):
            m[i][col] += c * m[j][col]
    perm = list(range(n))
    rng.shuffle(perm)
    return [m[p] for p in perm]


def simplicial_isolated(rng):
    """The acceptance-suite criterion-3 construction: lambda = 0 by theorem."""
    while True:
        t = rng.randint(2, 5)
        a1, a2 = rng.randint(0, t - 1), rng.randint(0, t - 1)
        if gcd(a1, t) != 1 or gcd(a2, t) != 1:
            continue
        u = random_unimodular(rng, 3)
        rays = [
            tuple(sum(u[i][j] * r[j] for j in range(3)) for i in range(3))
            for r in ((1, 0, 0), (0, 1, 0), (a1, a2, t))
        ]
        c = Cone.from_generators(3, rays)
        if is_simplicial(c) and has_isolated_fixed_point(c):
            return c


def random_support(rng):
    while True:
        nv = rng.randint(2, 4)
        target = rng.randint(2, 4)
        rows = set()
        while len(rows) < target:
            rows.add(tuple(rng.randint(0, 3) for _ in range(nv)))
        try:
            validate_support(sorted(rows))
        except SupportError:
            continue
        return sorted(rows)


def hyper_reference(rows):
    """(lambda, status, witness alpha, reduced support) of a support.

    The value is recomputed under CHECK_ORDERS random variable orders, each
    with its own sampler seed, and recording stops if any of them disagrees.
    """
    nv = len(rows[0])
    rng = random.Random(repr(rows))
    orders = [tuple(range(nv))] + [tuple(rng.sample(range(nv), nv)) for _ in range(CHECK_ORDERS)]
    seen = set()
    first = None
    for seed, perm in enumerate(orders):
        support = validate_support([tuple(r[p] for p in perm) for r in rows])
        sampler = make_torus_sampler(OracleConfig(prime=10007, trials=50, seed=seed))
        report = hypersurface_report(support, sampler=sampler)
        seen.add((report.lambda_lower_bound, report.status))
        if first is None:
            first = (report, support)
    if len(seen) != 1:
        raise SystemExit(f"reference of support {rows} depends on variable order or seed: {seen}")
    report, support = first
    return report.lambda_lower_bound, report.status, report.witness_alpha, support.exponents


def main():
    rng = random.Random(MASTER_SEED)
    pool = {
        "about": (
            "Pool inputs drawn from MASTER_SEED by perfbench/record_pool.py. The "
            "lambda, status and hilbert values are regression references recorded "
            "from the program at the commit that added the benchmark, not theory."
        ),
        "master_seed": MASTER_SEED,
    }
    pool["surfaces"] = [{"rays": surface(rng).generators} for _ in range(SIZES["surfaces"])]
    toric = []
    for _ in range(SIZES["toric_random"]):
        cone = random_cone(rng, 3, 3)
        toric.append({"rays": cone.generators, "lambda": mld_at_point(cone).lambda_value})
    pool["toric_random"] = toric
    pool["simplicial_isolated"] = [
        {"rays": simplicial_isolated(rng).generators} for _ in range(SIZES["simplicial_isolated"])
    ]
    supports = []
    pairs = []
    for _ in range(SIZES["supports"]):
        rows = random_support(rng)
        lam, status, alpha, reduced = hyper_reference(rows)
        supports.append({"support": rows, "lambda": lam, "status": status})
        if len(pairs) < SIZES["oracle_random"] and len(alpha) <= 3:
            pairs.append({"name": f"support{len(supports) - 1}", "support": reduced, "alpha": alpha})
    pool["supports"] = supports
    ade_pairs = []
    for name, expo, _ in ade_table():
        _, _, alpha, reduced = hyper_reference(expo)
        ade_pairs.append({"name": name, "support": reduced, "alpha": alpha})
    pool["oracle_pairs"] = ade_pairs + pairs
    for key, n, bound in (("cones_rank3", 3, 9), ("cones_rank4", 4, 6)):
        entries = []
        for _ in range(SIZES[key]):
            cone = random_cone(rng, n, bound)
            entries.append({"rays": cone.generators, "hilbert": hilbert_basis(cone).elements})
        pool[key] = entries
    # one pool entry per line keeps the file reviewable
    lines = []
    for key, value in pool.items():
        if isinstance(value, list):
            body = ",\n".join("  " + json.dumps(entry, separators=(",", ":")) for entry in value)
            lines.append(f"{json.dumps(key)}: [\n{body}\n]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    with open(POOL_FILE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {POOL_FILE}")


if __name__ == "__main__":
    main()
