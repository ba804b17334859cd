"""Seeded inputs for the four workloads.

`build(name, seed)` returns the workload's operations in run order.  An
operation is a dict: a `dold-zeta` command line (`kind` "cli", `argv`) or a
library call (`kind` "lib", `fn`, `args`), plus the `check` spec that
`checks.check_op` needs to verify the output independently.  Nothing here
imports doldzeta; the program receives only the generated inputs.

The seed changes what the inputs say, not what they cost: maps are fixed
shapes with randomly relabelled points; groups are conjugated by a random
permutation and their element lists shuffled; families move with their
group; signs of degrees, coefficient sizes, epsilons and bounds are drawn
where every choice costs the same.  Two seeds give different inputs of the
same size, so the figures of different seeds are comparable, and call
counts repeat exactly between runs with one seed.  The run order is fixed:
the first operation of a pass also pays the CLI's first-call costs, and
shuffling would hand them to a different operation for every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations
from math import factorial

from checks import profile_of

DEFAULT_SEED = 1
HELD_OUT_SEED = 4242

# The designated largest operation of each workload (its label), reported
# as `largest_s`.
LARGEST = {
    "group-calculus": "partition S5 elements max_block 3",
    "zeta-series": "graded N=48",
    "oracle-verify": "verify gsymm 10^5",
    "functor-calculus": "integer_lattice_check S4 box 3",
}


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# maps and groups


def relabel(shape, rng):
    """A random conjugate s f s^-1 of the map table `shape`."""
    n = len(shape)
    s = list(range(n))
    rng.shuffle(s)
    out = [0] * n
    for x in range(n):
        out[s[x]] = s[shape[x]]
    return out


def shape_map(cycles, tails=()):
    """Disjoint cycles of the given lengths, then tail points; each tail
    entry is the index of the point it maps to."""
    table = []
    for length in cycles:
        start = len(table)
        table.extend(start + (i + 1) % length for i in range(length))
    table.extend(tails)
    return table


def map_json(table):
    return {"size": len(table), "map": table}


def symmetric_elements(k):
    return [tuple(p) for p in permutations(range(k))]


def cyclic_gens(k):
    return [tuple((i + 1) % k for i in range(k))]


def dihedral_gens(k):
    return [tuple((i + 1) % k for i in range(k)), tuple((-i) % k for i in range(k))]


def symmetric_gens(k):
    if k == 2:
        return [(1, 0)]
    return [tuple([1, 0] + list(range(2, k))), tuple((i + 1) % k for i in range(k))]


def product_gens(left, right, left_degree):
    """Generators of the direct product acting on the disjoint union."""
    right_degree = len(right[0])
    out = []
    for g in left:
        out.append(tuple(g) + tuple(range(left_degree, left_degree + right_degree)))
    for h in right:
        out.append(tuple(range(left_degree)) + tuple(x + left_degree for x in h))
    return out


def closure(degree, gens):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                p = tuple(g[h[i]] for i in range(degree))
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return list(seen)


def conjugate(perms, s):
    """s g s^-1 for each g."""
    inv = [0] * len(s)
    for i, x in enumerate(s):
        inv[x] = i
    return [tuple(s[g[inv[i]]] for i in range(len(s))) for g in perms]


def group_json(degree, gens, as_elements, rng, s):
    """The group generated by `gens`, conjugated by s, given either as its
    shuffled element list or as its conjugated generators."""
    if as_elements:
        elements = [list(g) for g in conjugate(closure(degree, gens), s)]
        rng.shuffle(elements)
        return {"degree": degree, "elements": elements}
    return {"degree": degree, "generators": [list(g) for g in conjugate(gens, s)]}


def random_perm(k, rng):
    s = list(range(k))
    rng.shuffle(s)
    return s


def relabel_blocks(blocks, s):
    return [sorted(s[x] for x in b) for b in blocks]


# ---------------------------------------------------------------------------
# group-calculus


def _group_ops(rng):
    ops = []

    def add(command, label, degree, gens, as_elements, family=None, coefficient=None,
            symmetric=False):
        """`symmetric` marks a symmetric group, whose block-bound families
        have a closed form that checks the whole polynomial."""
        s = random_perm(degree, rng)
        group = group_json(degree, gens, as_elements, rng, s)
        table = relabel(shape_map((3, 1, 1), (0,)), rng)
        argv = [command, "--group", _dumps(group)]
        check = {"group": group, "map": table, "symmetric": symmetric}
        if family is not None:
            if "refines" in family:
                family = {"ground": degree, "refines": relabel_blocks(family["refines"], s)}
            elif "members" in family:
                members = [relabel_blocks(p, s) for p in family["members"]]
                rng.shuffle(members)
                family = {"ground": degree, "members": members}
            argv += ["--family", _dumps(family)]
            check["family"] = family
        if coefficient is not None:
            argv += ["--coefficient-size", str(coefficient)]
            check["coefficient"] = coefficient
        argv += ["--map", _dumps(map_json(table))]
        ops.append({"label": label, "kind": "cli", "argv": argv, "check": check})

    sym = {k: symmetric_elements(k) for k in range(2, 6)}
    # group averages: symmetric groups by elements and by generators
    for k in (3, 4, 5):
        add("gsymm", f"gsymm S{k} elements", k, sym[k], True)
        add("gsymm", f"gsymm S{k} generators", k, symmetric_gens(k), False)
    # S3 wr S2 (order 72) is the largest group on six points whose closure
    # stays under the generator order cap; S6 itself is left out
    add("gsymm", "gsymm S3wrS2 generators", 6,
        product_gens(symmetric_gens(3), symmetric_gens(3), 3) + [(3, 4, 5, 0, 1, 2)], False)
    for k in (4, 5, 6):
        add("gsymm", f"gsymm C{k} generators", k, cyclic_gens(k), False)
        add("gsymm", f"gsymm D{k} generators", k, dihedral_gens(k), False)
    add("gsymm", "gsymm D6 elements", 6, dihedral_gens(6), True)
    add("gsymm", "gsymm S2xS3 elements", 5, product_gens([(1, 0)], symmetric_gens(3), 2), True)
    add("gsymm", "gsymm S3xS3 generators", 6,
        product_gens(symmetric_gens(3), symmetric_gens(3), 3), False)
    # group averages with a coefficient space
    for label, degree, gens, elems in (
        ("S4", 4, symmetric_gens(4), False),
        ("S5", 5, sym[5], True),
        ("D5", 5, dihedral_gens(5), False),
        ("S2xS3", 5, product_gens([(1, 0)], symmetric_gens(3), 2), False),
    ):
        add("gsymm", f"gsymm {label} coefficient", degree, gens, elems,
            coefficient=rng.choice((2, 3)))
    # partition families under symmetric groups, with a block bound
    for k, bounds in ((3, (1, 2)), (4, (1, 2, 3)), (5, (1, 3))):
        for bound in bounds:
            elems = (k + bound) % 2 == 0
            gens = sym[k] if elems else symmetric_gens(k)
            kind = "elements" if elems else "generators"
            add("partition", f"partition S{k} {kind} max_block {bound}", k, gens, elems,
                family={"ground": k, "max_block": bound}, symmetric=True)
    for k in (4, 5):
        add("partition", f"partition S{k} max_block 1 coefficient", k, symmetric_gens(k), False,
            family={"ground": k, "max_block": 1}, coefficient=rng.choice((2, 3)),
            symmetric=True)
    # cyclic and dihedral groups with a block bound
    for label, degree, gens, bound in (
        ("C5", 5, cyclic_gens(5), 2),
        ("D5", 5, dihedral_gens(5), 3),
        ("D4", 4, dihedral_gens(4), 2),
    ):
        add("partition", f"partition {label} max_block {bound}", degree, gens, False,
            family={"ground": degree, "max_block": bound})
    # refinement families under Young subgroups that stabilize the blocks
    add("partition", "partition S2xS3 refines", 5,
        product_gens([(1, 0)], symmetric_gens(3), 2), True,
        family={"refines": [[0, 1], [2, 3, 4]]})
    add("partition", "partition S2xS2 refines", 4,
        product_gens([(1, 0)], [(1, 0)], 2), False,
        family={"refines": [[0, 1], [2, 3]]})
    add("partition", "partition S3xS2 refines coefficient", 5,
        product_gens(symmetric_gens(3), [(1, 0)], 3), False,
        family={"refines": [[0, 1, 2], [3, 4]]}, coefficient=rng.choice((2, 3)))
    # explicit member lists: the discrete partition and every single pair
    for label, degree, gens, elems in (
        ("S4", 4, sym[4], True),
        ("S5", 5, symmetric_gens(5), False),
        ("C5", 5, cyclic_gens(5), False),
    ):
        members = [[[i] for i in range(degree)]]
        for a in range(degree):
            for b in range(a + 1, degree):
                members.append([[a, b]] + [[i] for i in range(degree) if i not in (a, b)])
        add("partition", f"partition {label} pair members", degree, gens, elems,
            family={"members": members})
    return ops


# ---------------------------------------------------------------------------
# zeta-series


def sphere_lefschetz(degree, dimension, order):
    """L(f^k) = 1 + (-1)^n d^k for a degree-d self-map of S^n."""
    return [1 + (-1) ** dimension * degree ** k for k in range(1, order + 1)]


def signed(degree, rng):
    """The degree or its negative: the same cost, other Lefschetz numbers."""
    return degree * rng.choice((1, -1))


def torus_lefschetz(matrix, order):
    """L(f^k) = det(I - A^k) for the torus map induced by a 2x2 matrix."""
    a, b, c, d = matrix
    out = []
    p = (1, 0, 0, 1)
    for _ in range(order):
        p = (p[0] * a + p[1] * c, p[0] * b + p[1] * d, p[2] * a + p[3] * c, p[2] * b + p[3] * d)
        out.append((1 - p[0]) * (1 - p[3]) - p[1] * p[2])
    return out


def graded_input(eigen, rng):
    """Graded matrices with the given integer eigenvalues per degree: an
    upper-triangular matrix with unit entries above the diagonal, conjugated
    by a random signed permutation, so the eigenvalues are known exactly."""
    degrees = {}
    for degree, values in eigen.items():
        n = len(values)
        upper = [[Fraction(values[i]) if i == j else Fraction(1 if j > i else 0)
                  for j in range(n)] for i in range(n)]
        s = random_perm(n, rng)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        # (P A P^-1)[s i][s j] = sign_i sign_j A[i][j]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                rows[s[i]][s[j]] = str(signs[i] * signs[j] * upper[i][j])
        degrees[str(degree)] = rows
    return {"degrees": degrees}


def _zeta_ops(rng):
    ops = []

    def add(label, argv, check):
        ops.append({"label": label, "kind": "cli", "argv": argv, "check": check})

    # degrees -5..5; for each |d| one sign goes with an even-dimensional
    # sphere and the other with an odd one, and the seed picks which
    for a in range(6):
        flip = rng.random() < 0.5
        for sign in ((1,) if a == 0 else (1, -1)):
            values = sphere_lefschetz(sign * a, 2 if (sign > 0) != flip else 1, 32)
            add(f"zeta sphere degree {sign * a}",
                ["zeta", "--lefschetz", _dumps(values), "-N", "32"],
                {"N": 32, "lefschetz": values})
    torus = {-3: (1, 2, 2, 1), -2: (0, 1, 2, 0), -1: (0, 1, 1, 0), 2: (2, 1, 0, 1),
             3: (2, 1, 1, 2), 5: (2, 1, 1, 3)}
    for det, matrix in torus.items():
        values = torus_lefschetz(matrix, 24)
        add(f"zeta torus degree {det}", ["zeta", "--lefschetz", _dumps(values), "-N", "24"],
            {"N": 24, "lefschetz": values})
    for d, dimension, order in ((3, 2, 40), (4, 1, 32), (2, 2, 48)):
        values = sphere_lefschetz(signed(d, rng), dimension, order)
        bound = rng.choice((1, 2, 3))
        add(f"symmetric sphere degree {d} N={order}",
            ["symmetric", "--lefschetz", _dumps(values), "-l", str(bound), "-N", str(order)],
            {"N": order, "lefschetz": values, "bound": bound})
    values = sphere_lefschetz(signed(3, rng), 1, 40)
    add("symmetric unbounded N=40", ["symmetric", "--lefschetz", _dumps(values), "-N", "40"],
        {"N": 40, "lefschetz": values, "bound": None})
    for order in (24, 48):
        profile = [m % 4 for m in range(order)]
        rng.shuffle(profile)
        add(f"borsuk-ulam profile N={order}",
            ["borsuk-ulam", "--profile", _dumps({"horizon": order, "values": profile}),
             "-N", str(order)],
            {"N": order, "profile": profile})
    values = sphere_lefschetz(signed(3, rng), 2, 40)
    add("borsuk-ulam sphere N=40", ["borsuk-ulam", "--lefschetz", _dumps(values), "-N", "40"],
        {"N": 40, "lefschetz": values})
    for parity, order in (("odd", 32), ("even", 48)):
        values = sphere_lefschetz(signed(4, rng), 2, order)
        eps = rng.choice((1, -1))
        add(f"config-trace {parity} N={order}",
            ["config-trace", "--lefschetz", _dumps(values), "--parity", parity,
             "--epsilon", str(eps), "-N", str(order)],
            {"N": order, "lefschetz": values, "parity": parity, "epsilon": eps})
    eigen = {0: [1], 1: [2, -1], 2: [3]}
    eps = rng.choice((1, -1))
    add("config-trace graded even N=32",
        ["config-trace", "--graded", _dumps(graded_input(eigen, rng)), "--parity", "even",
         "--epsilon", str(eps), "-N", "32"],
        {"N": 32, "eigen": eigen, "parity": "even", "epsilon": eps})
    for count, order in ((7, 64), (-6, 48), (12, 32)):
        bound = rng.choice((2, 3))
        add(f"tuples N={order}",
            ["tuples", "--lefschetz-number", str(count), "-l", str(bound), "-N", str(order)],
            {"N": order, "L": count, "bound": bound})
    for label, eigen, order in (
        ("graded N=12", {0: [1], 1: [2, 3], 2: [5]}, 12),
        ("graded N=32", {0: [1], 1: [-2, 3], 2: [4]}, 32),
        ("graded N=48", {0: [1], 1: [2, 3], 2: [5]}, 48),
    ):
        add(label, ["graded", "--matrices", _dumps(graded_input(eigen, rng)), "-N", str(order)],
            {"N": order, "eigen": eigen})
    eigen = {0: [1, 1], 1: [-3, 2]}
    add("zeta graded N=48", ["zeta", "--graded", _dumps(graded_input(eigen, rng)), "-N", "48"],
        {"N": 48, "eigen": eigen})
    for shape, order in (((3, 2, 1, 1), 12), ((5, 4, 3, 2, 1), 40), ((6, 4, 2, 1), 64)):
        table = relabel(shape_map(shape, (0, 1)), rng)
        add(f"dold map N={order}", ["dold", "--map", _dumps(map_json(table)), "-N", str(order)],
            {"N": order, "map": table})
    table = relabel(shape_map((4, 3, 2, 2, 1), (0,)), rng)
    add("zeta map reduced N=48",
        ["zeta", "--map", _dumps(map_json(table)), "--reduced", "-N", "48"],
        {"N": 48, "map": table, "reduced": True})
    profile = [m % 4 - 1 for m in range(56)]
    rng.shuffle(profile)
    add("zeta profile N=56",
        ["zeta", "--profile", _dumps({"horizon": 56, "values": profile}), "-N", "56"],
        {"N": 56, "profile": profile})
    return ops


# ---------------------------------------------------------------------------
# oracle-verify


def _oracle_ops(rng):
    ops = []

    def add(label, plan, eigen=None):
        check = {"identity": plan["identity"], "plan": plan}
        if eigen is not None:
            check["eigen"] = eigen
        ops.append({"label": label, "kind": "cli",
                    "argv": ["verify", "--plan", _dumps(plan)], "check": check})

    def m(cycles, tails):
        return map_json(relabel(shape_map(cycles, tails), rng))

    add("verify md n=9 k=6", {"identity": "md", "k_max": 6, "map": m((3, 2, 1), (0, 1, 3))})
    add("verify md n=8 k=7", {"identity": "md", "k_max": 7, "map": m((2, 2, 1, 1), (0, 4))})
    add("verify main l=1 n=10 k=6",
        {"identity": "main", "l": 1, "k_max": 6, "map": m((4, 2, 1, 1), (0, 6))})
    add("verify main l=2 n=9 k=7",
        {"identity": "main", "l": 2, "k_max": 7, "map": m((3, 1, 1), (0, 3, 4, 5))})
    add("verify prod n=12 k=6",
        {"identity": "prod", "k_max": 6, "map": m((3, 3, 2, 1, 1), (0, 5))})
    add("verify prod n=14 k=5",
        {"identity": "prod", "k_max": 5, "map": m((5, 2, 2, 1), (0, 1, 5, 7))})
    add("verify sub F=4 l=2 k=7",
        {"identity": "sub", "l": 2, "k_max": 7, "map": m((1, 1, 1, 1, 2), ())})
    add("verify sub F=5 l=3 k=6",
        {"identity": "sub", "l": 3, "k_max": 6, "map": m((1, 1, 1, 1, 1, 3), (5,))})
    # the largest: all 10^5 maps K -> M for |K| = 5, |M| = 10, trivial group
    group = {"degree": 5, "elements": [list(range(5))]}
    add("verify gsymm 10^5",
        {"identity": "gsymm", "map": m((3, 2, 1, 1), (0, 3, 5)), "group": group})
    for label, degree, gens, elems, cycles, tails in (
        ("D4 6^4", 4, dihedral_gens(4), False, (2, 1, 1), (0, 2, 3)),
        ("C5 5^5", 5, cyclic_gens(5), True, (2, 1, 1), (0,)),
        ("S3 8^3", 3, symmetric_elements(3), True, (3, 2, 1), (0, 3)),
    ):
        s = random_perm(degree, rng)
        group = group_json(degree, gens, elems, rng, s)
        add(f"verify gsymm {label}",
            {"identity": "gsymm", "map": m(cycles, tails), "group": group})
    for label, degree, gens, bound, coefficient, cycles, tails in (
        ("S3 max_block 2 coefficient 2", 3, symmetric_gens(3), 2, 2, (2, 1, 1), (0, 1)),
        ("C4 max_block 2 coefficient 2", 4, cyclic_gens(4), 2, 2, (2, 1), (0, 1)),
        ("D4 max_block 2", 4, dihedral_gens(4), 2, None, (2, 1, 1), (0, 3)),
    ):
        s = random_perm(degree, rng)
        plan = {"identity": "partition", "map": m(cycles, tails),
                "group": group_json(degree, gens, False, rng, s),
                "family": {"ground": degree, "max_block": bound}}
        if coefficient is not None:
            plan["coefficient_size"] = coefficient
        add(f"verify partition {label}", plan)
    for label, values, euler, bound in (
        ("euler -2 l=2", [2, 1, 0, 1], -2, 2),
        ("euler 2 l=1", [1, 2, 1, 0], 2, 1),
        ("euler 3 unbounded", [2, 0, 1, 1], 3, None),
    ):
        values = values[:]
        rng.shuffle(values)
        plan = {"identity": "coeffic", "profile": {"horizon": 4, "values": values},
                "euler": euler, "N": 4}
        if bound is not None:
            plan["l"] = bound
        add(f"verify coeffic {label}", plan)
    for parity, eigen, k_max in (("odd", {0: [1], 1: [-1]}, 12), ("even", {0: [1], 1: [3]}, 24)):
        eps = rng.choice((1, -1))
        plan = {"identity": "config-trace", "graded": graded_input(eigen, rng),
                "parity": parity, "epsilon": eps, "k_max": k_max}
        add(f"verify config-trace {parity} k={k_max}", plan, eigen)
    ops.append({"label": "selftest", "kind": "cli", "argv": ["selftest"],
                "check": {"plans": 9}})
    return ops


# ---------------------------------------------------------------------------
# functor-calculus: polynomials built here, in t_1..t_n with Fraction terms


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def poly_const(c, n):
    return {(0,) * n: Fraction(c)} if c else {}


def poly_var(i, n, shift=0):
    """t_i + shift (1-based i)."""
    e = [0] * n
    e[i - 1] = 1
    return poly_add({tuple(e): Fraction(1)}, poly_const(shift, n))


def binomial_poly(i, j, n, rising=False):
    """C(t_i, j), or C(t_i + j - 1, j) when rising."""
    out = poly_const(1, n)
    for r in range(j):
        out = poly_mul(out, poly_var(i, n, r if rising else -r))
    return poly_scale(out, Fraction(1, factorial(j)))


def bounded_power_terms(k, bound):
    """[q^k] prod_{m<=k} (1 + q^m + ... + q^{lm})^{t_m}, expanding each
    factor as sum_j C(t_m, j) (q^m + ... + q^{lm})^j."""
    n = k
    series = [poly_const(1, n)] + [{} for _ in range(k)]
    for m in range(1, k + 1):
        factor = [poly_const(1, n)] + [{} for _ in range(k)]
        for j in range(1, k // m + 1):
            if bound is None:
                factor[m * j] = binomial_poly(m, j, n, rising=True)
                continue
            # coefficients of (q^m + ... + q^{bound m})^j
            power = [1] + [0] * k
            for _ in range(j):
                nxt = [0] * (k + 1)
                for a, ca in enumerate(power):
                    if ca:
                        for i in range(1, bound + 1):
                            if a + m * i <= k:
                                nxt[a + m * i] += ca
                power = nxt
            binom = binomial_poly(m, j, n)
            for idx, c in enumerate(power):
                if c:
                    factor[idx] = poly_add(factor[idx], poly_scale(binom, c))
        nxt = [{} for _ in range(k + 1)]
        for a, pa in enumerate(series):
            if pa:
                for b in range(k + 1 - a):
                    if factor[b]:
                        nxt[a + b] = poly_add(nxt[a + b], poly_mul(pa, factor[b]))
        series = nxt
    return series[k]


def cycle_index_terms(elements, weights, n):
    """(1/|G|) sum_g w_g prod_{cycles c} (sum_{m | |c|} m t_m)."""
    total = {}
    for g, w in zip(elements, weights):
        term = poly_const(w, n)
        seen = [False] * len(g)
        for s in range(len(g)):
            if seen[s]:
                continue
            length, x = 0, s
            while not seen[x]:
                seen[x] = True
                x = g[x]
                length += 1
            linear = {}
            for m in range(1, length + 1):
                if length % m == 0:
                    linear = poly_add(linear, poly_scale(poly_var(m, n), m))
            term = poly_mul(term, linear)
        total = poly_add(total, term)
    return poly_scale(total, Fraction(1, len(elements)))


def poly_spec(terms, nvars, degree_bound=None):
    return {
        "nvars": nvars,
        "degree_bound": nvars if degree_bound is None else degree_bound,
        "terms": [[list(e), str(c)] for e, c in sorted(terms.items())],
    }


def _cycles_of(g):
    seen, count = [False] * len(g), 0
    for s in range(len(g)):
        if not seen[s]:
            count += 1
            x = s
            while not seen[x]:
                seen[x] = True
                x = g[x]
    return count


def _small_maps(rng, count=3):
    shapes = [(2, 1), (3, 1), (1, 1, 2), (2, 2), (1, 1, 1)]
    return [relabel(shape_map(shapes[i % len(shapes)], (0,) * (i % 2)), rng)
            for i in range(count)]


def power_expr(k, bound):
    return {"kind": "power", "power": k, "bound": bound}


def _functor_ops(rng):
    ops = []

    def add(label, fn, args, check):
        ops.append({"label": label, "kind": "lib", "fn": fn, "args": args, "check": check})

    for k, bound in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, None), (5, 1), (5, 2),
                     (5, None), (6, 1), (6, 2)):
        add(f"bounded_power_polynomial k={k} l={bound}", "bounded_power_polynomial",
            {"k": k, "bound": bound}, {"k": k, "bound": bound})
    for i, (k, bound) in enumerate(((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, None),
                                    (5, 1), (5, 3), (6, 1), (6, 2), (6, None), (3, None))):
        table = relabel(shape_map(((1, 1, 2, 3), (2, 2, 1), (1, 1, 1, 4))[i % 3], (0,)), rng)
        counts = profile_of(table)
        point = [counts.get(m, 0) for m in range(1, k + 1)]
        add(f"evaluate k={k} l={bound}", "evaluate",
            {"lp": poly_spec(bounded_power_terms(k, bound), k), "point": point},
            {"k": k, "bound": bound, "map": table})
    for k, bound, m in ((2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2), (2, 1, 4), (3, 1, 3)):
        add(f"dold_polynomial_of_functor k={k} l={bound} m={m}", "dold_polynomial_of_functor",
            {"lp": poly_spec(bounded_power_terms(k, bound), k), "m": m},
            {"k": k, "bound": bound, "m": m, "maps": _small_maps(rng, 2)})
    for (k1, l1), (k2, l2) in (((2, 1), (2, 1)), ((2, 2), (2, 1)), ((3, 1), (2, 1)),
                               ((2, 1), (3, 1))):
        expr = {"kind": "compose", "outer": power_expr(k1, l1), "inner": power_expr(k2, l2)}
        add(f"compose_lefschetz {k1},{l1} after {k2},{l2}", "compose_lefschetz",
            {"outer": poly_spec(bounded_power_terms(k1, l1), k1),
             "inner": poly_spec(bounded_power_terms(k2, l2), k2)},
            {"expr": expr, "maps": _small_maps(rng, 2)})
    odd = {"kind": "sphere", "parity": "odd"}
    ident = {"kind": "identity"}
    for label, expr in (
        ("wedge of smashes", {"kind": "wedge", "parts": [
            {"kind": "smash", "parts": [ident, power_expr(2, 1)]}, odd, power_expr(3, 2)]}),
        ("smash of powers", {"kind": "smash", "parts": [
            power_expr(2, 2), power_expr(2, 1), odd]}),
        ("composite", {"kind": "compose", "outer": power_expr(2, 1),
                       "inner": power_expr(2, 2)}),
        ("wedge with composite", {"kind": "wedge", "parts": [
            ident, {"kind": "compose", "outer": power_expr(2, 2), "inner": ident},
            {"kind": "smash", "parts": [odd, power_expr(3, 1)]}]}),
    ):
        parts = expr.get("parts")
        if parts:
            rng.shuffle(parts)
        add(f"expression_polynomial {label}", "expression_polynomial", {"expr": expr},
            {"expr": expr, "maps": _small_maps(rng, 3)})
    # realization targets: fixed signed sums of binomial products (integer
    # valued); their signs are not drawn, since they change the cost
    for k, pieces in ((3, [(2, (1, 1), (2, 1)), (-1, (1, 2)), (1, (3, 1))]),
                      (4, [(1, (1, 2), (2, 1)), (-2, (4, 1)), (1, (2, 2)),
                           (-1, (1, 1), (3, 1))])):
        terms = {}
        for coefficient, *piece in pieces:
            prod = poly_const(1, k)
            for var, j in piece:
                prod = poly_mul(prod, binomial_poly(var, j, k))
            terms = poly_add(terms, poly_scale(prod, coefficient))
        spec = poly_spec(terms, k)
        add(f"realize_polynomial k={k}", "realize_polynomial", {"poly": spec, "k": k},
            {"target": spec["terms"], "k": k, "maps": _small_maps(rng, 3)})
    # integrality on the lattice: cycle-index polynomials with coefficient weights
    for label, degree, elements, box in (
        ("S4 box 3", 4, symmetric_elements(4), 3),
        ("D4 box 3", 4, closure(4, dihedral_gens(4)), 3),
        ("C5 box 2", 5, closure(5, cyclic_gens(5)), 2),
    ):
        n = rng.choice((2, 3))
        weights = [n ** _cycles_of(g) for g in elements]
        terms = cycle_index_terms(elements, weights, degree)
        spec = poly_spec(terms, degree)
        add(f"integer_lattice_check {label}", "integer_lattice_check",
            {"poly": spec, "box": box},
            {"poly": spec["terms"], "nvars": degree, "box": box})
    half = {(0, 1): Fraction(1, 2), (1, 0): Fraction(rng.choice((1, -1)))}
    spec = poly_spec(half, 2)
    add("integer_lattice_check half t2", "integer_lattice_check", {"poly": spec, "box": 2},
        {"poly": spec["terms"], "nvars": 2, "box": 2})
    return ops


WORKLOADS = {
    "group-calculus": _group_ops,
    "zeta-series": _zeta_ops,
    "oracle-verify": _oracle_ops,
    "functor-calculus": _functor_ops,
}


def build(name, seed):
    """The workload's operations for this seed, in run order."""
    ops = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    labels = [op["label"] for op in ops]
    if len(set(labels)) != len(labels) or LARGEST[name] not in labels:
        raise ValueError(f"workload {name}: labels must be unique and include the largest")
    return ops
