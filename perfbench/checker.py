"""Result checker behind the benchmark's fail_ratio.

`check(op, code, stdout)` returns None when the report of one op is right and
a one-line reason otherwise.  It compares the invariants a later change must
keep (lambda, mld-hat, status, the staircase dimension counts, Hilbert
elements, dual rays) against the op's expected values, and it checks every
witness with the arithmetic below, which shares no code with `mldhat`.  It
never compares report bytes: which tied witness is chosen, the search bound
used and the diagnostics may all change.
"""

from __future__ import annotations

import itertools
import json


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rank(vectors):
    """Rank over Q by fraction-free elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f, g = rows[i][c], rows[r][c]
                rows[i] = [g * x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def primitive(v):
    g = 0
    for x in v:
        a, b = g, abs(x)
        while b:
            a, b = b, a % b
        g = a
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def facet_normals(rays):
    """Primitive inward facet normals of a full-dimensional pointed cone.

    These are exactly the extreme rays of the dual cone.  Every facet is
    spanned by some n - 1 independent rays, whose cofactor vector is normal
    to it; a normal is kept when all rays lie on one side.
    """
    n = len(rays[0])
    out = set()
    for combo in itertools.combinations(rays, n - 1):
        rows = [list(r) for r in combo]
        normal = primitive(tuple((-1) ** j * det([row[:j] + row[j + 1:] for row in rows]) for j in range(n)))
        if not any(normal):
            continue
        values = [dot(normal, r) for r in rays]
        if all(v >= 0 for v in values):
            out.add(normal)
        elif all(v <= 0 for v in values):
            out.add(tuple(-x for x in normal))
    return sorted(out)


def reduce_support(rows):
    """Drop the variables no monomial uses and sort, as the CLI does."""
    keep = [j for j in range(len(rows[0])) if any(r[j] for r in rows)]
    return sorted(tuple(r[j] for j in keep) for r in rows)


def weights(rows, alpha):
    return [dot(alpha, e) for e in rows]


def pivot_gap(rows, alpha):
    """(mu, pivot variable): min of weight - alpha_j over monomials using j."""
    w = weights(rows, alpha)
    return min((w[i] - alpha[j], j) for i, e in enumerate(rows) for j in range(len(e)) if e[j] > 0)


def feasible(rows, alpha):
    w = weights(rows, alpha)
    return w.count(min(w)) >= 2


def objective(rows, alpha):
    return sum(a - 1 for a in alpha) + 1 - min(weights(rows, alpha)) + pivot_gap(rows, alpha)[0]


def expansion_size(rows, alpha, m):
    """Number of window monomials in the arc expansion cut at t^m.

    With all coefficients 1 nothing cancels, and distinct support monomials
    give distinct window monomials, so this counts, for each monomial x^e,
    the choices of e_j superscripts in [alpha_j, m] per variable (as
    multisets) whose weights sum to at most m.
    """
    total = 0
    for e in rows:
        by_weight = {0: 1}
        for j, k in enumerate(e):
            if k == 0:
                continue
            # multisets of size k from alpha_j..m, counted by (size, weight)
            table = {(0, 0): 1}
            for u in range(alpha[j], m + 1):
                grown = dict(table)
                for (size, weight), count in table.items():
                    for extra in range(1, k - size + 1):
                        key = (size + extra, weight + extra * u)
                        if key[1] <= m:
                            grown[key] = grown.get(key, 0) + count
                table = grown
            per_variable = {w: c for (size, w), c in table.items() if size == k}
            by_weight = _convolve(by_weight, per_variable, m)
        total += sum(by_weight.values())
    return total


def _convolve(a, b, cap):
    out: dict[int, int] = {}
    for x, cx in a.items():
        for y, cy in b.items():
            if x + y <= cap:
                out[x + y] = out.get(x + y, 0) + cx * cy
    return out


class Mismatch(Exception):
    """A report that contradicts an expected value or fails a witness check."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _toric(op, rep):
    e = op.expect
    expect(rep.get("lambda") == e["lam"], f"lambda {rep.get('lambda')} != {e['lam']} ({e['source']})")
    expect(rep.get("mather_mld") == e["mld"], f"mld-hat {rep.get('mather_mld')} != {e['mld']}")
    expect(rep.get("status") == "EXACT", f"status {rep.get('status')}")
    w = rep["witness"]
    point, chosen, value = tuple(w["point"]), [tuple(u) for u in w["chosen_set"]], w["value"]
    n = e["dim"] if op.kind == "face" else len(e["rays"][0])
    expect(len(point) == n and len(chosen) == n, "witness has the wrong size")
    expect(rank(chosen) == n, "witness set does not have full rank")
    expect(sum(dot(u, point) for u in chosen) == value, "witness pairing sum differs from its value")
    expect(value - n == e["lam"], "witness value does not give lambda")
    if op.kind == "toric":
        rays = e["rays"]
        expect(all(dot(u, point) > 0 for u in facet_normals(rays)), "witness point is not interior")
        expect(all(dot(u, r) >= 0 for u in chosen for r in rays), "witness set leaves the dual cone")


def _hyper(op, rep):
    e = op.expect
    lam = rep.get("lambda_lower_bound")
    expect(lam == e["lam"], f"lambda bound {lam} != {e['lam']} ({e['name']}, {e['source']})")
    expect(rep.get("mather_mld_lower_bound") == e["lam"] + e["dim"], "mld-hat bound differs")
    expect(rep.get("status") == e["status"], f"status {rep.get('status')} != {e['status']}")
    certified = rep["certificate"]["status"] == "CERTIFIED"
    expect(certified == (rep["status"] == "EXACT"), "status disagrees with the certificate")
    rows = reduce_support(e["support"])
    alpha = tuple(rep["witness"]["alpha"])
    expect(len(alpha) == len(rows[0]) and min(alpha) >= 1, "witness alpha has the wrong shape")
    expect(feasible(rows, alpha), "witness alpha is not feasible")
    expect(objective(rows, alpha) == lam, "witness objective differs from the bound")


def _staircase(op, rep):
    e = op.expect
    rows, alpha, m = sorted(e["support"]), e["alpha"], e["m"]
    window = sum(m - a + 1 for a in alpha)
    equations = m + pivot_gap(rows, alpha)[0] - min(weights(rows, alpha)) + 1
    expect(rep.get("empty") is False, "staircase reports an empty stratum for a feasible alpha")
    expect(rep.get("window_size") == window, f"window_size {rep.get('window_size')} != {window}")
    expect(rep.get("equations_solved") == equations, f"equations_solved {rep.get('equations_solved')} != {equations}")
    expect(rep.get("estimated_dim") == window - equations, "estimated_dim differs")
    # zero successes is a result the program documents, not a wrong one
    expect(rep.get("trials") == 50 and 0 <= rep.get("successes", -1) <= 50, "staircase trials or successes out of range")


def _torus(op, rep):
    e = op.expect
    rows, alpha, p = sorted(e["support"]), e["alpha"], e["prime"]
    w = rep["witness"]
    if w is None:
        return  # the sampler may find nothing; it documents None as a result
    x = w["point"]
    expect(w["prime"] == p and len(x) == len(alpha) and all(v % p for v in x), "torus point is malformed")
    wt = weights(rows, alpha)
    initial = [i for i, v in enumerate(wt) if v == min(wt)]
    j0 = pivot_gap(rows, alpha)[1]
    using = [i for i, r in enumerate(rows) if r[j0] > 0]
    sigma = [i for i in using if wt[i] == min(wt[k] for k in using)]
    indices = sorted(set(initial) | set(sigma))
    expect(len(w["coefficients"]) == len(indices), "coefficient list has the wrong length")
    c = dict(zip(indices, w["coefficients"]))

    def value(terms):
        total = 0
        for mult, i, expo in terms:
            term = mult * c[i]
            for xj, k in zip(x, expo):
                term = term * pow(xj, k, p) % p
            total += term
        return total % p

    expect(value([(1, i, rows[i]) for i in initial]) == 0, "torus point does not kill the initial form")
    lowered = [(rows[i][j0], i, tuple(k - (j == j0) for j, k in enumerate(rows[i]))) for i in sigma]
    expect(value(lowered) != 0, "pivot derivative vanishes at the torus point")


def _expand(op, rep):
    e = op.expect
    rows, alpha, m = sorted(e["support"]), e["alpha"], e["m"]
    expect(tuple(rep.get("alpha", ())) == tuple(alpha) and rep.get("m") == m, "expansion echoes other inputs")
    count = 0
    for s, monomials in rep["terms"].items():
        for entry in monomials:
            mono = entry["monomial"]
            expect(sum(u * k for _, u, k in mono) == int(s), f"monomial of the wrong weight in G_{s}")
            expect(all(alpha[j] <= u <= m for j, u, _ in mono), "monomial leaves the window")
            expect(entry["coefficient"] > 0, "integer expansion with a nonpositive coefficient")
            count += 1
    expected = expansion_size(rows, alpha, m)
    expect(count == expected, f"expansion has {count} monomials, expected {expected}")


def _hilbert(op, rep):
    got = sorted(tuple(u) for u in rep["elements"])
    want = list(op.expect["elements"])
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    expect(not missing and not extra, f"hilbert basis: {len(missing)} missing, {len(extra)} extra")
    expect(rep.get("count") == len(want), "hilbert count differs")


def _dual(op, rep):
    got = sorted(tuple(u) for u in rep["dual_rays"])
    expect(got == facet_normals(op.expect["rays"]), "dual rays differ from the facet normals")


CHECKS = {
    "toric": _toric,
    "face": _toric,
    "hyper": _hyper,
    "staircase": _staircase,
    "torus": _torus,
    "expand": _expand,
    "hilbert": _hilbert,
    "dual": _dual,
}


def check(op, code, stdout):
    """None when the report is right, otherwise the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        CHECKS[op.kind](op, json.loads(stdout))
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
