"""The lambda > 0 toric corpus: cones of rank 3 and 4 whose lambda is positive.

Every toric cone of the benchmark pool has lambda = 0, so without this
corpus the toric search is checked past lambda = 0 only on the binomial
charts of `test_cross_route.py`.  `lambda_positive_cones.json` holds what
one seeded search finds.  A shape is (rank n, ray count k, entry bound b),
with n in 3-4, k in n..6 and b in 1..3; each shape draws DRAWS sets of k
rays with entries in [-b, b] from its own seeded stream (`shape_stream`).
A draw is kept when its rays span a pointed full-dimensional cone, the
search stays within LIMIT points and lambda > 0; each record holds the
shape, the cone's extreme rays, lambda and the witness.  LIMIT is the
search's `max_points`: it caps the cells and candidate points of the cone
and, level by level, the bounding box of each candidate's level slice.
When the corpus was recorded it capped the dual Hilbert basis and the
candidates instead, and cones past it were left out, so the corpus leans
to small duals; the search under today's meaning keeps the same 91 cones.
Every corpus cone has lambda = 1; products of corpus cones, with lambda 2
and 3, check that lambda adds up over a product
(`test_lambda_is_additive_on_products`).

To record the corpus anew, run this module as a script from the
repository root:

    PYTHONPATH=src python tests/test_lambda_positive.py

It rewrites `lambda_positive_cones.json`; review its diff like any other
change.
"""

import json
import pathlib
import random
import sys
from collections import defaultdict

import pytest

from mldhat import toric
from mldhat.cones import Cone, ConeError, dual_cone
from mldhat.hilbert import hilbert_basis
from mldhat.lattice import LimitError
from mldhat.toric import SpanningWitness, minimize_spanning_cost
from reference_kernels import reference_minimize_spanning_cost

CORPUS = pathlib.Path(__file__).with_name("lambda_positive_cones.json")
SEED = 2017
DRAWS = 500
LIMIT = 20000
SHAPES = tuple((n, k, b) for n in (3, 4) for k in range(n, 7) for b in (1, 2, 3))


def shape_stream(shape):
    n, k, b = shape
    return random.Random(SEED * 1000 + 100 * n + 10 * k + b)


def search(shape):
    """The records of one shape, in draw order, each cone once."""
    n, k, b = shape
    rng = shape_stream(shape)
    records, seen = [], set()
    for _ in range(DRAWS):
        rays = [[rng.randint(-b, b) for _ in range(n)] for _ in range(k)]
        try:
            cone = Cone.from_generators(n, rays)
            if not cone.is_full_dimensional or cone.generators in seen:
                continue
            report = minimize_spanning_cost(cone, LIMIT)
        except (ConeError, LimitError):
            continue
        seen.add(cone.generators)
        if report.lambda_value > 0:
            w = report.witness
            records.append({
                "shape": list(shape),
                "rays": [list(r) for r in cone.generators],
                "lambda": report.lambda_value,
                "witness": {"point": list(w.point), "value": w.value, "chosen_set": [list(u) for u in w.chosen_set]},
            })
    return records


def witness(record):
    w = record["witness"]
    return SpanningWitness(
        point=tuple(w["point"]), value=w["value"], chosen_set=tuple(tuple(u) for u in w["chosen_set"])
    )


def recorded():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_both_ranks():
    records = recorded()
    ranks = [len(r["rays"][0]) for r in records]
    assert len(records) >= 50
    assert ranks.count(3) >= 10 and ranks.count(4) >= 10
    assert all(r["lambda"] > 0 for r in records)
    assert len({tuple(map(tuple, r["rays"])) for r in records}) == len(records)


@pytest.mark.parametrize("rank", (3, 4))
def test_search_and_reference_reproduce_the_corpus(rank):
    for record in recorded():
        rays = record["rays"]
        if len(rays[0]) != rank:
            continue
        cone = Cone.from_generators(rank, rays)
        report = minimize_spanning_cost(cone)
        assert (report.lambda_value, report.witness) == (record["lambda"], witness(record)), rays
        assert report == reference_minimize_spanning_cost(cone, hilbert_basis(dual_cone(cone))), rays


def test_search_reproduces_one_shape():
    # one cheap shape with cones in it; the script re-runs every shape
    shape = (3, 4, 1)
    assert search(shape) == [r for r in recorded() if tuple(r["shape"]) == shape]



def product(factors):
    """The product of cones in the sum of their lattices, and the factors' witnesses joined.

    Each factor is (rank, rays, witness); the product's rays are the
    factors' rays padded with zeros, and the joined witness is the points
    put side by side with the chosen sets embedded the same way.
    """
    n = sum(rank for rank, _, _ in factors)
    rays, point, chosen, value, before = [], (), [], 0, 0
    for rank, factor_rays, w in factors:
        left, right = (0,) * before, (0,) * (n - before - rank)
        rays += [left + tuple(r) + right for r in factor_rays]
        point += w.point
        chosen += [left + u + right for u in w.chosen_set]
        value += w.value
        before += rank
    return Cone.from_generators(n, rays), SpanningWitness(point, value, tuple(sorted(chosen)))


# lambda = 0 factors: the A1 surface singularity and the cone over the unit square
LAMBDA_ZERO = ([(2, -1), (0, 1)], [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def test_lambda_is_additive_on_products(monkeypatch):
    # The dual semigroup of s1 x s2 is the product of the two, and its
    # spanning sets are the bases of the direct sum of the two matroids.  So
    # the greedy of (a1, a2) picks the picks of a1 and of a2, cost adds up,
    # and the least minimizer is the two least minimizers joined:
    # lambda(s1 x s2) = lambda(s1) + lambda(s2) with the joined witness.
    walked = defaultdict(set)  # greedy -> the levels whose slice it walked
    setups = []  # the greedies whose feed found no projections and set them up
    feed = toric._LevelGreedy.feed

    def counted_feed(greedy, level, max_points):
        if greedy.projections is None:
            setups.append(greedy)
        feed(greedy, level, max_points)
        walked[greedy].add(level)

    monkeypatch.setattr(toric._LevelGreedy, "feed", counted_feed)
    records = recorded()
    factors = [(len(r["rays"][0]), r["rays"], witness(r)) for r in records]
    zeros = []
    for rays in LAMBDA_ZERO:
        cone = Cone.from_generators(len(rays[0]), rays)
        zeros.append((cone.ambient_rank, rays, minimize_spanning_cost(cone).witness))
    rng = random.Random(SEED)
    cases = [rng.sample(factors, 2) for _ in range(60)]
    cases += [[zeros[0], zeros[1]], [zeros[0], factors[0]], [factors[-1], zeros[1]]]
    simplicial = [f for f in factors if len(f[1]) == f[0] == 3]
    cases.append(rng.sample(simplicial, 3))
    # one set-up per walked candidate serves every level it walks, with or
    # without a limit: the box under a limit is read off the same dual rays
    for max_points in (None, 10**15):
        walked.clear()
        del setups[:]
        lambdas = []
        for case in cases:
            cone, expected = product(case)
            report = minimize_spanning_cost(cone, max_points)
            lambdas.append(report.lambda_value)
            assert report.lambda_value == sum(w.value - rank for rank, _, w in case), [rays for _, rays, _ in case]
            assert report.witness == expected, [rays for _, rays, _ in case]
        assert lambdas[:60] == [2] * 60 and lambdas[60:] == [0, 1, 1, 3]
        assert len(setups) == len(walked), max_points
        # the search walks level 2 but no deeper: every factor has lambda <= 1
        assert {frozenset(levels) for levels in walked.values()} == {frozenset({1}), frozenset({1, 2})}

if __name__ == "__main__":
    records = [record for shape in SHAPES for record in search(shape)]
    lines = ",\n".join(" " + json.dumps(r) for r in records)
    CORPUS.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} cones to {CORPUS}", file=sys.stderr)
