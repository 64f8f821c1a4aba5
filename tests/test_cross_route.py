"""Cross-route identity: a normal binomial hypersurface is toric, and its two
objectives agree point by point.

For x^u - x^v with disjoint supports, every variable used and u - v
primitive, the lattice of the toric chart is L = {a in Z^N : a . (u - v) = 0},
with basis the rows of K = integer_kernel([u - v], N).  The character of
the coordinate x_j is the column u_j of K, so in kernel coordinates the dual
cone is generated by the u_j, and the chart is the hypersurface exactly when
the semigroup they generate is saturated, that is, when `hilbert_basis`
adds no element beyond them.  An interior lattice point a of the primal cone
has the orders alpha_j = <a, u_j> >= 1 with alpha . (u - v) = 0; a -> alpha
is a bijection onto the feasible order tuples.  At every such a,

    cost(a) - n = Obj(alpha(a)),    n = N - 1,

where cost is the toric greedy spanning cost and Obj the hypersurface
objective.  So the two lambdas agree, and from the greedy threshold
m >= max <a, u> over the greedy spanning set on, the jet orbit dimension
(m + 1) n - cost(a) equals the staircase count window - equations at
(alpha(a), m).

LAMBDA_POSITIVE_BINOMIALS is the corpus of normal binomials with lambda > 0:
every disjoint binomial with at most 6 variables and exponents at most 5
that is normal and has lambda > 0, up to the order of the variables and of
the two monomials.  Random binomials almost always have lambda = 0, so a
new toric search checks itself against these cones.
"""

import itertools
import random
from typing import NamedTuple

import pytest

from mldhat.cones import Cone, dual_cone
from mldhat.hilbert import HilbertBasis, hilbert_basis
from mldhat.hypersurface import SupportError, binomial_lambda, objective, validate_support
from mldhat.lattice import content, express_in_basis, integer_kernel, pairing
from mldhat.oracle import staircase_verify
from mldhat.toric import minimize_spanning_cost, spanning_cost_greedy

# (u, v, lambda): x^u - x^v
LAMBDA_POSITIVE_BINOMIALS = (
    ((2, 0, 0, 0), (0, 1, 1, 1), 1),  # y^2 - x1 x2 x3
    ((3, 0, 0, 0, 0), (0, 1, 1, 1, 1), 1),
    ((2, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1), 1),
    ((3, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1), 1),
    ((4, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1), 1),
)


class ToricChart(NamedTuple):
    kernel: list  # rows: a basis of the lattice L, in echelon form
    characters: tuple  # u_j: the kernel coordinates of the coordinate x_j
    basis: HilbertBasis  # of the dual cone generated by the u_j

    @property
    def cone(self) -> Cone:
        """The primal cone, in kernel coordinates."""
        return dual_cone(self.basis.dual)

    @property
    def is_normal(self) -> bool:
        return set(self.basis.elements) <= set(self.characters)


def toric_chart(u, v) -> ToricChart:
    size = len(u)
    kernel = integer_kernel([[a - b for a, b in zip(u, v)]], size)
    characters = tuple(tuple(row[j] for row in kernel) for j in range(size))
    dual = Cone.from_generators(size - 1, characters)
    return ToricChart(kernel, characters, hilbert_basis(dual))


def feasible_orders(u, v, box):
    """The order tuples in [1, box]^N with alpha . u = alpha . v."""
    for alpha in itertools.product(range(1, box + 1), repeat=len(u)):
        if sum(a * x for a, x in zip(alpha, u)) == sum(a * x for a, x in zip(alpha, v)):
            yield alpha


def route_pairs(u, v, box):
    """(alpha, cost(a) - n, Obj(alpha)) at every interior a with alpha(a) in the box."""
    chart = toric_chart(u, v)
    support = validate_support([u, v])
    n = len(u) - 1
    for alpha in feasible_orders(u, v, box):
        a = express_in_basis(chart.kernel, alpha)
        yield alpha, spanning_cost_greedy(a, chart.basis).value - n, objective(support, alpha)


def random_normal_binomials(seed, count):
    """`count` normal disjoint binomials with 3-5 variables and exponents <= 3."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        size = rng.randint(3, 5)
        split = rng.randint(1, size - 1)
        u = tuple(rng.randint(1, 3) if j < split else 0 for j in range(size))
        v = tuple(0 if j < split else rng.randint(1, 3) for j in range(size))
        if content([a - b for a, b in zip(u, v)]) != 1 or not toric_chart(u, v).is_normal:
            continue
        found.append((u, v))
    return found


def test_characters_pair_to_the_orders():
    u, v = (1, 1, 1, 0), (0, 0, 0, 2)
    chart = toric_chart(u, v)
    for alpha in feasible_orders(u, v, 3):
        a = express_in_basis(chart.kernel, alpha)
        assert tuple(sum(x * y for x, y in zip(c, a)) for c in chart.characters) == alpha
        assert chart.basis.is_interior_point(a)


def test_saturation_test_sees_a_non_normal_binomial():
    # the Whitney umbrella x^2 = y^2 z is not normal: its semigroup misses x / y
    chart = toric_chart((2, 0, 0), (0, 2, 1))
    assert not chart.is_normal
    assert toric_chart((1, 1, 1, 0), (0, 0, 0, 2)).is_normal


def test_random_normal_binomials_agree_point_by_point():
    pairs = 0
    values = set()
    for u, v in random_normal_binomials(seed=2017, count=40):
        for alpha, toric, hyper in route_pairs(u, v, box=5):
            assert toric == hyper, (u, v, alpha)
            pairs += 1
            values.add(toric)
        chart = toric_chart(u, v)
        support = validate_support([u, v])
        assert minimize_spanning_cost(chart.cone).lambda_value == binomial_lambda(support).value
    assert pairs >= 300
    assert len(values) >= 10


def test_x1x2x3_minus_y_squared():
    u, v = (1, 1, 1, 0), (0, 0, 0, 2)
    pairs = list(route_pairs(u, v, box=6))
    assert all(toric == hyper for _, toric, hyper in pairs)
    assert len(pairs) == 86
    assert min(toric for _, toric, _ in pairs) == 1
    support = validate_support([u, v])
    assert minimize_spanning_cost(toric_chart(u, v).cone).lambda_value == 1
    assert binomial_lambda(support).value == 1


@pytest.mark.parametrize("u, v, lam", LAMBDA_POSITIVE_BINOMIALS)
def test_lambda_positive_corpus(u, v, lam):
    chart = toric_chart(u, v)
    assert chart.is_normal
    assert minimize_spanning_cost(chart.cone).lambda_value == lam
    assert binomial_lambda(validate_support([u, v])).value == lam
    pairs = list(route_pairs(u, v, box=4))
    assert pairs and all(toric == hyper for _, toric, hyper in pairs)
    assert min(toric for _, toric, _ in pairs) == lam


@pytest.mark.parametrize("u, v, lam", LAMBDA_POSITIVE_BINOMIALS)
def test_orbit_dimension_is_the_staircase_count(u, v, lam):
    chart = toric_chart(u, v)
    support = validate_support([u, v])
    n = len(u) - 1
    for alpha in feasible_orders(u, v, 3):
        a = express_in_basis(chart.kernel, alpha)
        best = spanning_cost_greedy(a, chart.basis)
        m = max(*(pairing(w, a) for w in best.chosen_set), *alpha)
        result = staircase_verify(support, alpha, m, trials=3, seed=0)
        assert (m + 1) * n - best.value == result.window_size - result.equations_solved
        assert result.window_size - result.equations_solved == result.estimated_dim
        assert result.successes == 3


def test_corpus_holds_every_small_lambda_positive_binomial():
    # the search that built the corpus, cut to at most 5 variables and
    # exponents at most 3 so that it stays quick
    found = []
    for size in (3, 4, 5):
        for split in range(1, size // 2 + 1):
            for head in itertools.combinations_with_replacement(range(1, 4), split):
                for tail in itertools.combinations_with_replacement(range(1, 4), size - split):
                    u, v = head + (0,) * (size - split), (0,) * split + tail
                    if content([a - b for a, b in zip(u, v)]) != 1:
                        continue
                    try:
                        lam = binomial_lambda(validate_support([u, v])).value
                    except SupportError:
                        continue
                    if lam > 0 and toric_chart(u, v).is_normal:
                        found.append((u, v, lam))
    assert found == [b for b in LAMBDA_POSITIVE_BINOMIALS if len(b[0]) <= 5]
