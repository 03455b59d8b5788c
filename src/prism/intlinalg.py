"""Exact linear algebra over the integers and the rationals.

Everything here is sized for lattices and representations of rank <= 3,
so the implementations favour clarity over asymptotics.  One integer
engine, ``hermite_normal_form``, does the elimination: the Smith invariant
factors come from alternating row and column Hermite forms.  Rational
vectors are tuples of ``fractions.Fraction``; ``fvec`` alone creates them
and imports the module, so the integer routines load no ``fractions``.

Matrices are tuples of tuples, rows are tuples.  Integer lattices are
given by generating rows; ``hermite_normal_form`` produces the canonical
representative (positive pivots, entries above a pivot reduced into
``[0, pivot)``, zero rows dropped).
"""

from math import gcd


# ---------------------------------------------------------------------------
# integer matrices


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def det(m):
    """Determinant by cofactor expansion; fine for the sizes used here."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def matrix_order(m):
    """Multiplicative order of an integer matrix, or None if it exceeds 12."""
    n = len(m)
    acc = m
    for k in range(1, 13):
        if acc == identity(n):
            return k
        acc = mat_mul(acc, m)
    return None


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x0, x1, y0, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


def hermite_normal_form(rows):
    """Row-style Hermite normal form of the lattice generated by ``rows``.

    ``rows`` may be any iterable of rows, a ``zip`` of columns among them.
    Returns the canonical basis as a tuple of rows: pivots positive,
    entries above each pivot reduced into [0, pivot), zero rows dropped.
    """
    basis = {}  # pivot column -> row (zeros strictly before the pivot)
    for row in rows:
        v = list(row)
        while any(v):
            j = next(i for i, x in enumerate(v) if x)
            if j not in basis:
                basis[j] = v
                break
            b = basis[j]
            g, x, y = _xgcd(b[j], v[j])
            coef_b, coef_v = b[j] // g, v[j] // g
            new_b = [x * p + y * q for p, q in zip(b, v)]
            v = [coef_b * q - coef_v * p for p, q in zip(b, v)]
            basis[j] = new_b  # pivot j now carries the gcd; v[j] == 0
    ordered = [basis[j] for j in sorted(basis)]
    for i, row in enumerate(ordered):
        j = next(k for k, x in enumerate(row) if x)
        if row[j] < 0:
            ordered[i] = row = [-x for x in row]
        for above in ordered[:i]:
            q = above[j] // row[j]
            if q:
                for k in range(len(row)):
                    above[k] -= q * row[k]
    return tuple(tuple(r) for r in ordered)


def solve_in_lattice(hnf_rows, vector):
    """Coordinates of ``vector`` in the HNF basis, or None if not in the lattice."""
    v = list(vector)
    coeffs = []
    j = 0  # the rows are in echelon form: each pivot lies right of the last
    for row in hnf_rows:
        while not row[j]:
            j += 1
        if v[j] % row[j] != 0:
            return None
        c = v[j] // row[j]
        coeffs.append(c)
        for k in range(j, len(v)):
            v[k] -= c * row[k]
    if any(v):
        return None
    return tuple(coeffs)


def _lattice_coordinates(hnf_rows, vectors):
    """The coordinates of each vector in the HNF basis, or None as soon as
    one vector lies outside the lattice."""
    coords = []
    for v in vectors:
        c = solve_in_lattice(hnf_rows, v)
        if c is None:
            return None
        coords.append(c)
    return coords


def snf_invariant_factors(m):
    """Nonzero invariant factors of an integer matrix, ascending divisibility.

    Row and column Hermite forms alternate until only diagonal entries are
    nonzero.  Each round's first pivot is the gcd of the previous first row
    or column, so it only shrinks; once it stops shrinking it divides that
    row and column, which the Hermite form has then already cleared, and
    the rounds go on in the block below it.  Replacing each pair of
    diagonal entries by their gcd and lcm puts them in divisibility order.
    """
    a = hermite_normal_form(m)
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if j != i):
        a = hermite_normal_form(zip(*a))
    d = [row[i] for i, row in enumerate(a)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


# ---------------------------------------------------------------------------
# rational subspaces (bases given as tuples of Fractions)


def fvec(v):
    from fractions import Fraction

    return tuple(Fraction(x) for x in v)


def rref(vectors):
    """Reduced row echelon form over Q; returns (basis rows, pivot columns)."""
    work = [list(fvec(v)) for v in vectors]
    ncols = len(work[0]) if work else 0
    basis, pivots = [], []
    for col in range(ncols):
        pivot_row = next((r for r in work if r[col] != 0), None)
        if pivot_row is None:
            continue
        work.remove(pivot_row)
        inv = 1 / pivot_row[col]
        pivot_row = [x * inv for x in pivot_row]
        for r in work + basis:
            if r[col] != 0:
                f = r[col]
                for k in range(ncols):
                    r[k] -= f * pivot_row[k]
        basis.append(pivot_row)
        pivots.append(col)
        work = [r for r in work if any(r)]
        if not work:
            break
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [tuple(basis[i]) for i in order], [pivots[i] for i in order]


def span_dim(vectors):
    return len(rref(vectors)[0])


def kernel(matrix_rows, ncols):
    """Basis of the right kernel of the matrix whose rows are given."""
    basis, pivots = rref(matrix_rows) if matrix_rows else ([], [])
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for j in free:
        v = list(fvec([0] * ncols))
        v[j] += 1
        for row, p in zip(basis, pivots):
            v[p] = -row[j]
        out.append(tuple(v))
    return out
