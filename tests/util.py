"""Shared helpers for the test suite: builders, generators, and oracles.

The oracles here stay independent of the code paths they check: incidence
rows are rebuilt from the encoding's definition, rank/null-space questions go
through sympy, the n = 2 statements use a union-find over the bipartite
multigraph rather than any linear algebra (and `pruned_tree_geodesic` a
pruning of its leaves), and relatedness classes and geodesics come from
enumerating every subset.  `DenseRowBasis` is the
dense elimination that the sparse `RowBasis` must match row for row,
`fraction_marginals` the plain `Fraction` sums that the integer marginals
must match entry by entry, `fraction_signature_groups` the `Fraction`
kernel signatures that the integer signature keys must group alike, and
`transposed_kernel_circuit` the transposed `Fraction` kernel that the
tagged elimination's circuit must match coefficient for coefficient,
`union_find_ei_classes` the union-find that the set-merging chain classes
must match class for class, `oracle_is_boundary` the sympy rank of the
stacked pin rows that the one boundary test must agree with,
`pinned_inverse` the `Fraction` Gauss-Jordan inverse of the pinned system
that the inverse read along the peel must match entry for entry,
`inverse_walk` the walk over a pinned inverse that the matching order's
geodesics must match point for point, and `geodesic_inverse_rows` the
per-geodesic inversion whose rows the class's pinned inverse must match
row for row, `whole_system_circuit` the scan over every row of S that the
lazy dependence scan must match circuit for circuit, and
`fraction_perturbation` the full-dict `Fraction` perturbation that the
loop-only integer certificate must match step and weights alike,
`holder_list_peel` the peel over per-column holder lists whose step count
and core the holder-sum peel must match, `incidence_row` the 0/1 row
over an index of coordinates whose rows, key order included,
`IncidenceSystem` must match, `rref_swap` the sympy rref of the pinned
rows whose canonical first kernel key `column_kernel`'s first vector must
lead with, and `rref_full_split` the split loop over those swaps whose
set after each point added `full_split` must match round for round.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

import goodsets as gs


def int_space(sizes) -> gs.Space:
    """Axes named x1..xn with integer labels 0..size-1."""
    return gs.Space.of(
        *((f"x{i+1}", tuple(range(s))) for i, s in enumerate(sizes))
    )


def pset(points, sizes=None) -> gs.PointSet:
    if sizes is None:
        return gs.PointSet.from_points(points)
    return gs.PointSet.of(int_space(sizes), points)


def cube_set(points) -> gs.PointSet:
    return gs.PointSet.of(int_space((2, 2, 2)), points)


T4 = [(1, 0, 1), (1, 1, 0), (0, 1, 1), (0, 0, 0)]
E5 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
E5_PLUS = E5 + [(1, 1, 1)]
DIAGONAL = [(0, 0, 0), (1, 1, 1)]
RECTANGLE = [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")]


# ---------------------------------------------------------------------------
# Random generators (seeded by the caller; inputs only, never the oracle).


def random_space(rng, n_choices=(2, 3, 4), max_axis=4) -> gs.Space:
    n = rng.choice(list(n_choices))
    return int_space(tuple(rng.randint(1, max_axis) for _ in range(n)))


def random_point_set(rng, space, max_points) -> gs.PointSet:
    product = list(space.all_points())
    rng.shuffle(product)
    k = rng.randint(1, min(max_points, len(product)))
    return gs.PointSet.of(space, product[:k])


def random_good_set(rng, space, max_points) -> gs.PointSet:
    """Greedy independent picks from a shuffled product, random target size.

    Stopping at a random size keeps non-full sets in the mix; running the
    greedy to saturation would always produce maximal (hence full) sets.
    """
    product = list(space.all_points())
    rng.shuffle(product)
    target = rng.randint(1, max_points)
    chosen = []
    for p in product:
        if len(chosen) >= target:
            break
        candidate = gs.PointSet.of(space, chosen + [p])
        if gs.is_good(candidate):
            chosen.append(p)
    return gs.PointSet.of(space, chosen)


def greedy_maximal_cube(rng, k, n=3) -> gs.PointSet:
    """Uniform points of k^n, each kept when its row is independent of those kept."""
    space = int_space((k,) * n)
    index = {c: j for j, c in enumerate(space.coordinates())}
    basis = gs.RowBasis(len(index))
    kept = set()
    while len(kept) < n * (k - 1) + 1:
        p = tuple(rng.randrange(k) for _ in range(n))
        row = {index[c]: 1 for c in enumerate(p)}
        if p not in kept and basis.add_sparse(row) is not None:
            kept.add(p)
    return gs.PointSet.of(space, kept)


def random_fraction(rng, span=9, max_den=7) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_decomposition(rng, S: gs.PointSet) -> gs.Decomposition:
    """Random rational tables on exactly the projections of S."""
    return gs.Decomposition(
        S.space,
        tuple(
            {v: random_fraction(rng) for v in S.projection(i)}
            for i in range(S.space.n)
        ),
    )


def random_function(rng, S: gs.PointSet) -> gs.FunctionTable:
    return gs.FunctionTable(S, {p: random_fraction(rng) for p in S})


def random_measure(rng, S: gs.PointSet) -> gs.FiniteMeasure:
    raw = {p: Fraction(rng.randint(1, 12)) for p in S}
    total = sum(raw.values())
    return gs.FiniteMeasure(S, {p: v / total for p, v in raw.items()})


# ---------------------------------------------------------------------------
# Independent oracles.


def fraction_marginals(weights, n) -> list[dict]:
    """Per axis, label -> the plain `Fraction` sum of its weights, labels in first-seen order."""
    tables: list[dict] = [dict() for _ in range(n)]
    for p, w in weights.items():
        for i, label in enumerate(p):
            tables[i][label] = tables[i].get(label, Fraction(0)) + w
    return tables


def fraction_signature_groups(G: gs.PointSet) -> list[list]:
    """G's points grouped by their `Fraction` signature over `gs.column_kernel`, in G's order.

    The signature of p is (g(i, p_i)) for g over the kernel basis and i over
    the axes, with every entry an exact `Fraction`.
    """
    kernel = gs.column_kernel(gs.IncidenceSystem(G))
    groups: dict[tuple, list] = {}
    for p in G:
        groups.setdefault(tuple(g.get(c, 0) for g in kernel for c in enumerate(p)), []).append(p)
    return list(groups.values())


def transposed_kernel_circuit(S: gs.PointSet):
    """The dependence scan's circuit read off the kernel of the tail's transpose, or None.

    This is how the scan read its circuit before the tagged elimination,
    kept as it was.  The reverse scan over S's own coordinates finds the
    first point e_k whose row depends on the rows after it; the columns of
    T = S.points[k:] are eliminated as rows over T's indices and
    back-substituted, the one free index gives the one `Fraction` kernel
    vector, and that vector is scaled to integers by the lcm of its
    denominators, made primitive and signed so that e_k's entry is positive.
    """
    index = {c: j for j, c in enumerate(S.coordinates())}
    rows = [{index[c]: 1 for c in enumerate(p)} for p in S]
    scan = gs.RowBasis(len(index))
    k = next((k for k in reversed(range(len(rows))) if scan.add_sparse(rows[k]) is None), None)
    if k is None:
        return None
    tail = S.points[k:]
    transposed = gs.RowBasis(len(tail))
    for j in range(len(index)):
        transposed.add_sparse({i: 1 for i, row in enumerate(rows[k:]) if j in row})
    transposed.back_substitute()
    (free,) = [i for i in range(len(tail)) if i not in transposed.pivot_rows]
    kernel = {free: Fraction(1)}
    for p, row in transposed.pivot_rows.items():
        if free in row:
            kernel[p] = Fraction(-row[free], row[p])
    kernel = dict(sorted(kernel.items()))
    scale = lcm(*(v.denominator for v in kernel.values()))
    ints = {i: int(v * scale) for i, v in kernel.items()}
    g = gcd(*ints.values())
    sign = 1 if ints[0] > 0 else -1
    return gs.CircuitVector(
        tuple(tail[i] for i in ints), tuple(sign * c // g for c in ints.values())
    )


def whole_system_circuit(S: gs.PointSet):
    """The dependence scan over an `IncidenceSystem` built for all of S, or None.

    This is how `linalg._circuit` ran before it built rows lazily, kept as
    it was: every point's row is built up front, the reverse scan finds the
    first dependent point e_k, and the tail's rows from e_k on are
    eliminated tagged, row i with a unit tag at column ncols + i.
    """
    system = gs.IncidenceSystem(S)
    rows = system.sparse_rows
    ncols = len(system.columns)
    scan = gs.RowBasis(ncols)
    k = next((k for k in reversed(range(len(rows))) if scan.add_sparse(rows[k]) is None), None)
    if k is None:
        return None
    basis = gs.RowBasis(ncols + len(rows) - k)
    for i, row in enumerate(rows[k:]):
        basis.add_sparse({**row, ncols + i: 1})
    assert [p for p in basis.pivot_rows if p >= ncols] == [ncols]
    tags, coefficients = zip(*sorted(basis.pivot_rows[ncols].items()))
    return gs.CircuitVector(tuple(S.points[k + j - ncols] for j in tags), coefficients)


def fraction_perturbation(m: gs.FiniteMeasure, loop, sign):
    """(epsilon, weights of mu + sign*eps*nu) in plain `Fraction`s over the whole dict.

    epsilon is the least w_p / |c_p| over the loop's entries; the weights
    are m's, in m's order, with every entry's move added and zeros dropped.
    """
    epsilon = min(m.weights[p] / abs(c) for p, c in zip(loop.points, loop.coefficients))
    w = dict(m.weights)
    for p, c in zip(loop.points, loop.coefficients):
        w[p] = w.get(p, Fraction(0)) + epsilon * sign * c
    return epsilon, {p: v for p, v in w.items() if v != 0}


def union_find_ei_classes(S: gs.PointSet, partition=None) -> gs.EiClasses:
    """Reference for `gs.ei_classes`: union-find per axis over the components' projections.

    The implementation that the set merging replaced, kept as it was.
    """
    if partition is None:
        partition = gs.related_components(S)
    space = S.space
    per_axis: list[tuple[tuple, ...]] = []
    for i in range(space.n):
        parent: dict = {v: v for v in S.projection(i)}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for comp in partition.components:
            values = comp.projection(i)
            for v in values[1:]:
                ra, rb = find(values[0]), find(v)
                if ra != rb:
                    parent[rb] = ra
        groups: dict = {}
        for v in S.projection(i):
            groups.setdefault(find(v), []).append(v)
        ordered = sorted(
            (tuple(sorted(g, key=lambda v: space.value_index(i, v))) for g in groups.values()),
            key=lambda cls: space.value_index(i, cls[0]),
        )
        per_axis.append(tuple(ordered))
    return gs.EiClasses(tuple(per_axis))


def oracle_is_boundary(S: gs.PointSet, coords) -> bool:
    """Do the coordinates, as unit rows under S's dense rows over C(S), give a square
    system of full sympy rank?  A coordinate outside C(S) has no unit row there."""
    from sympy import Matrix

    columns = sorted({(i, label) for p in S.points for i, label in enumerate(p)}, key=repr)
    if any(c not in columns for c in coords):
        return False
    rows = [[int(c in set(enumerate(p))) for c in columns] for p in S.points]
    rows += [[int(c == pin) for c in columns] for pin in coords]
    return len(rows) == len(columns) and Matrix(rows).rank() == len(columns)


def pinned_inverse(F: gs.PointSet, x) -> dict:
    """F's inverse pinned at x's first n - 1 coordinates, every row, by `Fraction` Gauss-Jordan.

    A is F's 0/1 incidence rows over C(F), rebuilt from the points, over one
    unit row per pinned coordinate, and [A | I] is reduced to [I | A^-1] on
    rows kept as dicts of their nonzero `Fraction` entries.  Row c of A^-1 is
    returned, in column order, as a dict {k: Fraction} of its nonzero entries
    at the points k, the weight of f at F.points[k] in u_c; the pin rows'
    weights are left out, as every pin is held at zero.  ValueError if A is
    not square or is singular.
    """
    columns = F.coordinates()
    index = {c: j for j, c in enumerate(columns)}
    size = len(columns)
    pins = [(i, x[i]) for i in range(F.space.n - 1)]
    coords = [list(enumerate(p)) for p in F.points] + [[c] for c in pins]
    if len(coords) != size:
        raise ValueError("the pinned system is not square")
    one = Fraction(1)
    rows = [{**{index[c]: one for c in cs}, size + k: one} for k, cs in enumerate(coords)]
    for j in range(size):
        pivot = next((r for r in range(j, size) if j in rows[r]), None)
        if pivot is None:
            raise ValueError("the pinned system is singular")
        rows[j], rows[pivot] = rows[pivot], rows[j]
        a = rows[j][j]
        prow = rows[j] = {i: v / a for i, v in rows[j].items()}
        for row in rows:
            b = row.get(j) if row is not prow else None
            if b:
                for i, w in prow.items():
                    v = row.get(i, 0) - b * w
                    if v:
                        row[i] = v
                    else:
                        del row[i]
    return {
        c: {k: v for k in range(len(F)) if (v := rows[j].get(size + k))}
        for j, c in enumerate(columns)
    }


def inverse_walk(F: gs.PointSet, x, y, inverse) -> set:
    """The points of x and y's geodesic, walked over F's `inverse` pinned at x.

    How `geodesic` found them before the matching order, kept as it was but
    over the full inverse alone.  F is full and holds x and y.  Layer by
    layer from y's coordinates, the walk adds the points with a nonzero
    entry in the rows at the new coordinates, counting the coordinates it
    has reached, and stops at the first full set.
    """
    n, points = F.space.n, F.points
    reached = {points.index(x), points.index(y)}
    layer = list(enumerate(y))
    seen = set(layer)
    while layer:
        reached.update(*(inverse[c] for c in layer))
        coords = {c for k in reached for c in enumerate(points[k])}
        if len(coords) - len(reached) == n - 1:
            return {points[k] for k in reached}
        layer = coords - seen
        seen |= layer
    raise AssertionError("the walk ended without a full set")


def geodesic_inverse_rows(F: gs.PointSet, x, y, inverse) -> dict:
    """The rows at y's coordinates of the inverse of x and y's geodesic, keyed by F's indices.

    How the geodesic route read its values before it read them off the
    class's inverse, kept as it was: the geodesic G is walked over F's
    `inverse` pinned at x (`inverse_walk`), G's own system pinned at x is
    inverted, and each row at y's coordinates has its keys, indices into
    G's points, mapped to the same points' indices in F.
    """
    G = gs.PointSet(F.space, tuple(inverse_walk(F, x, y, inverse)))
    index = {p: k for k, p in enumerate(F.points)}
    rows = pinned_inverse(G, x)
    return {c: {index[G.points[k]]: w for k, w in rows[c].items()} for c in enumerate(y)}


def rref_swap(S: gs.PointSet, coords):
    """The first key of the canonical kernel vector of the least free column, by sympy's rref.

    S's dense 0/1 rows over C(S), in declaration order, are stacked over a
    unit row per coordinate in coords and put in reduced row echelon form.
    f0 is the least non-pivot column, and the kernel vector that is 1 at f0
    and 0 at the other non-pivot columns is nonzero at f0 and at each pivot
    column whose rref row is nonzero at f0; the key is the least of those.
    None when every column is a pivot.
    """
    from sympy import Matrix

    held = {(i, label) for p in S.points for i, label in enumerate(p)}
    columns = [(i, v) for i, axis in enumerate(S.space.axes) for v in axis.values if (i, v) in held]
    rows = [[int(p[i] == v) for i, v in columns] for p in S.points]
    rows += [[int(c == pin) for c in columns] for pin in coords]
    reduced, pivots = Matrix(rows).rref()
    f0 = next((j for j in range(len(columns)) if j not in pivots), None)
    if f0 is None:
        return None
    return columns[min([f0, *(p for r, p in enumerate(pivots) if reduced[r, f0] != 0)])]


def rref_full_split(S: gs.PointSet) -> list[gs.PointSet]:
    """Reference for `gs.full_split` on a good S that is not full: F after each point it adds.

    F starts as S plus the least point of the product of S's projections,
    in lexicographic order, that is outside S and whose row is independent
    of S's by sympy's rank.  While def(F) > n - 1, x0 is the first point of
    F - S in canonical order, and x0 with its coordinate at `rref_swap`'s
    key, pinned at x0's first n - 1 coordinates, swapped in joins F.  The
    last set is the split.
    """
    space, n = S.space, S.space.n
    first = next(
        p
        for p in itertools.product(*S.projections())
        if p not in S.points and oracle_independent(space, [*S.points, p])
    )
    rounds = [gs.PointSet.of(space, [*S.points, first])]
    while sum(map(len, rounds[-1].projections())) - len(rounds[-1]) > n - 1:
        F = rounds[-1]
        x0 = next(p for p in F.points if p not in S.points)
        j, value = rref_swap(F, [(i, x0[i]) for i in range(n - 1)])
        swapped = tuple(value if i == j else x0[i] for i in range(n))
        rounds.append(gs.PointSet.of(space, [*F.points, swapped]))
    return rounds


def oracle_rank(space, points) -> int:
    from sympy import Matrix

    return Matrix(_rows(space, points)).rank() if points else 0


def _rows(space, points):
    columns = [(i, v) for i, ax in enumerate(space.axes) for v in ax.values]
    index = {c: j for j, c in enumerate(columns)}
    rows = []
    for p in points:
        row = [0] * len(columns)
        for i, label in enumerate(p):
            row[index[(i, label)]] = 1
        rows.append(row)
    return rows


def _dense_primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


class DenseRowBasis:
    """Reference for `gs.RowBasis`: the elimination on dense list rows.

    This is the dense implementation that the sparse `RowBasis` replaced,
    kept as it was.  Same pivot rule (the least nonzero column), primitive
    reduced rows and positive leads, so the sparse basis must give the same
    pivot rows entry by entry, before and after back-substitution.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _reduce(self, vec):
        """(residual, lead): the residual's first nonzero column, ncols if it is zero."""
        v = list(vec)
        if len(v) != self.ncols:
            raise gs.PreconditionError("vector length does not match column count")
        j = 0
        while j < self.ncols:
            if v[j] == 0:
                j += 1
                continue
            row = self.pivot_rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = [-x for x in v]
                break
            a, b = row[j], v[j]
            # v and the pivot row are both zero before column j.
            v[j:] = _dense_primitive([b_k * a - row_k * b for b_k, row_k in zip(v[j:], row[j:])])
            j += 1
        return v, j

    def contains(self, vec) -> bool:
        return self._reduce(vec)[1] == self.ncols

    def add(self, vec):
        """Insert if independent; returns the new pivot column, else None."""
        r, lead = self._reduce(vec)
        if lead == self.ncols:
            return None
        self.pivot_rows[lead] = r
        return lead

    def back_substitute(self):
        """Clear every pivot column above its pivot, in place."""
        pivots = sorted(self.pivot_rows)
        for k in range(len(pivots) - 1, 0, -1):
            prow = self.pivot_rows[pivots[k]]
            a = prow[pivots[k]]
            for q in pivots[:k]:
                row = self.pivot_rows[q]
                b = row[pivots[k]]
                if b:
                    self.pivot_rows[q] = _dense_primitive(
                        [x * a - y * b for x, y in zip(row, prow)]
                    )


def oracle_independent(space, points) -> bool:
    return oracle_rank(space, points) == len(points)


def oracle_zero_marginal_dependency(space, points):
    """A nonzero rational vector c with sum_i c_i * row_i = 0, or None.

    Existence is exactly "some signed measure supported on the points has
    zero marginals on every axis".
    """
    from sympy import Matrix, Rational

    M = Matrix(_rows(space, points)).T
    null = M.nullspace()
    if not null:
        return None
    return [Fraction(str(Rational(x))) for x in null[0]]


def bipartite_is_forest(points) -> bool:
    """n = 2 goodness oracle: the point multigraph has no cycle."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in points:
        a, b = find(("L", x)), find(("R", y))
        if a == b:
            return False
        parent[a] = b
    return True


def bipartite_components(points):
    """n = 2 component oracle: group points by connected component."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in points:
        a, b = find(("L", x)), find(("R", y))
        if a != b:
            parent[a] = b
    groups = {}
    for p in points:
        groups.setdefault(find(("L", p[0])), set()).add(tuple(p))
    return sorted(frozenset(g) for g in groups.values())


def pruned_tree_geodesic(points, x, y):
    """n = 2 geodesic oracle: x and y's tree in the bipartite forest, pruned to them.

    Repeatedly drop every point other than x and y with a coordinate that
    no other point left holds, a leaf edge; what stays is the least subtree
    holding both edges.  The caller passes the component of x and y.
    """
    left = {tuple(p) for p in points}
    while True:
        held = {}
        for p in left:
            for c in enumerate(p):
                held[c] = held.get(c, 0) + 1
        leaves = {p for p in left if p not in (x, y) and min(held[c] for c in enumerate(p)) == 1}
        if not leaves:
            return frozenset(left)
        left -= leaves


def brute_force_full_subsets(points):
    """Every nonempty full subset of a good set, by enumerating every subset.

    Every subset of a good set is good, so a subset is full exactly when
    its coordinate count minus its size is n - 1.
    """
    pts = [tuple(p) for p in points]
    n = len(pts[0])
    full = []
    for size in range(1, len(pts) + 1):
        for subset in itertools.combinations(pts, size):
            kinds = {(i, p[i]) for p in subset for i in range(n)}
            if len(kinds) - size == n - 1:
                full.append(frozenset(subset))
    return full


def brute_force_components(points):
    """Relatedness classes of a good set from `brute_force_full_subsets`.

    A point's class is the union of the full subsets holding it; the
    distinct classes come back sorted, without assuming that they partition
    the set.
    """
    classes = {tuple(p): {tuple(p)} for p in points}
    for subset in brute_force_full_subsets(points):
        for p in subset:
            classes[p].update(subset)
    return sorted({frozenset(c) for c in classes.values()}, key=sorted)


def brute_force_geodesic(points, x, y):
    """Every smallest full subset holding x and y, by enumerating subsets by size.

    Fullness is coordinate counting as in `brute_force_full_subsets`.  The
    result lists each smallest full subset as a frozenset, without assuming
    there is only one; it is empty when no subset holding both is full.
    """
    pts = [tuple(p) for p in points]
    n = len(pts[0])
    required = {tuple(x), tuple(y)}
    rest = [p for p in pts if p not in required]
    for extra in range(len(rest) + 1):
        hits = []
        for subset in itertools.combinations(rest, extra):
            chosen = required.union(subset)
            kinds = {(i, p[i]) for p in chosen for i in range(n)}
            if len(kinds) - len(chosen) == n - 1:
                hits.append(frozenset(chosen))
        if hits:
            return hits
    return []


def incidence_row(point, col_index) -> dict:
    """Sparse 0/1 row of a point, one (axis, label) lookup per coordinate; others are dropped."""
    row = {}
    for coord in enumerate(point):
        j = col_index.get(coord)
        if j is not None:
            row[j] = 1
    return row


def holder_list_peel(rows, ncols):
    """(steps, core): the 2-core peel with a list of its holders kept for every column.

    The same two rules as `linalg._peel`: a row goes with a column only it
    holds, or with its one live column, and each removed column lowers the
    degree of every live row on its holder list.
    """
    holders = [[] for _ in range(ncols)]
    for k, row in enumerate(rows):
        for j in row:
            holders[j].append(k)
    count = list(map(len, holders))
    degree = list(map(len, rows))
    row_live = [d > 0 for d in degree]
    col_live = [True] * ncols
    private = [j for j in range(ncols) if count[j] == 1]
    single = [k for k in range(len(rows)) if degree[k] == 1]
    steps = []
    while private or single:
        if private:
            j = private.pop()
            if not col_live[j] or count[j] != 1:
                continue
            k = next(k for k in holders[j] if row_live[k])
        else:
            k = single.pop()
            if not row_live[k] or degree[k] != 1:
                continue
            j = next(j for j in rows[k] if col_live[j])
        steps.append((k, j))
        row_live[k] = col_live[j] = False
        for i in rows[k]:
            if col_live[i]:
                count[i] -= 1
                if count[i] == 1:
                    private.append(i)
        for h in holders[j]:
            if row_live[h]:
                degree[h] -= 1
                if degree[h] == 1:
                    single.append(h)
                elif degree[h] == 0:
                    row_live[h] = False
    core = {
        k: {j: x for j, x in row.items() if col_live[j]}
        for k, row in enumerate(rows)
        if row_live[k]
    }
    return steps, core
