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

import pytest

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


if __name__ == "__main__":
    records = [record for shape in SHAPES for record in search(shape)]
    lines = ",\n".join(" " + json.dumps(r) for r in records)
    CORPUS.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"wrote {len(records)} cones to {CORPUS}", file=sys.stderr)
