"""Exact linear algebra: canonical forms and rational subspace helpers."""

import random
from functools import reduce
from itertools import combinations
from math import gcd

from fractions import Fraction

import pytest

from prism import intlinalg as la


def test_hnf_known_forms():
    assert la.hermite_normal_form([(2, 0), (0, 2)]) == ((2, 0), (0, 2))
    assert la.hermite_normal_form([(1, 2), (3, 4)]) == ((1, 0), (0, 2))
    assert la.hermite_normal_form([(0, 0)]) == ()
    assert la.hermite_normal_form([(-1, 0), (0, 1)]) == ((1, 0), (0, 1))
    assert la.hermite_normal_form([(2, 4, 4)]) == ((2, 4, 4),)


def test_hnf_is_canonical_under_row_operations():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.choice([1, 2, 3])
        rows = [
            tuple(rng.randint(-5, 5) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        ]
        h1 = la.hermite_normal_form(rows)
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                c = rng.randint(-3, 3)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        assert la.hermite_normal_form(mixed) == h1
        for r in rows:
            assert la.solve_in_lattice(h1, r) is not None


def test_hnf_shape_invariants():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.choice([2, 3])
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        h = la.hermite_normal_form(rows)
        pivots = []
        for row in h:
            j = next(i for i, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(pivots)
        for i, row in enumerate(h):
            j = pivots[i]
            for above in h[:i]:
                assert 0 <= above[j] < row[j]


def test_snf_examples():
    assert la.snf_invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert la.snf_invariant_factors([[1, 0], [0, 1]]) == (1, 1)
    assert la.snf_invariant_factors([[2]]) == (2,)
    assert la.snf_invariant_factors([[0, 0], [0, 0]]) == ()
    assert la.snf_invariant_factors([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == (1, 10, 30)


def test_snf_determinant_and_divisibility():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.choice([1, 2, 3])
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        factors = la.snf_invariant_factors(m)
        d = la.det(m)
        if d:
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(d)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
    assert la.det(()) == 1  # the empty product


def test_snf_against_determinantal_divisors():
    # the product of the first k factors is the gcd of all k x k minors;
    # the minors are cofactor determinants, independent of any elimination
    rng = random.Random(10)
    for _ in range(1500):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        factors = la.snf_invariant_factors(m)
        assert len(factors) == len(la.hermite_normal_form(m))
        prod = 1
        for k, f in enumerate(factors, 1):
            prod *= f
            minors = (
                la.det(tuple(tuple(m[i][j] for j in cols) for i in rows))
                for rows in combinations(range(nrows), k)
                for cols in combinations(range(ncols), k)
            )
            assert prod == reduce(gcd, minors, 0), m


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(11)
    nonzero = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        m = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        theirs = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        assert la.snf_invariant_factors(m) == tuple(abs(int(d)) for d in theirs if d), m
        nonzero += any(map(any, m))
    assert nonzero > 350


def test_hnf_lattice_against_sympy():
    """sympy's Hermite form is column-style, so the lattices are compared:
    the columns of its form of the transposed rows span ours."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    rng = random.Random(12)
    cases = 0
    while cases < 300:
        ncols = rng.randint(1, 3)
        rows = [tuple(rng.randint(-6, 6) for _ in range(ncols)) for _ in range(rng.randint(1, ncols))]
        ours = la.hermite_normal_form(rows)
        if len(ours) < len(rows):  # sympy's form needs full column rank
            continue
        theirs = hermite_normal_form(sympy.Matrix(rows).T)
        columns = zip(*(map(int, row) for row in theirs.tolist()))
        assert la.hermite_normal_form(columns) == ours, rows
        cases += 1


def test_solve_in_lattice():
    h = la.hermite_normal_form([(2, 1), (0, 3)])
    assert la.solve_in_lattice(h, (2, 1)) is not None
    assert la.solve_in_lattice(h, (1, 0)) is None
    assert la.solve_in_lattice((), (0, 0)) == ()
    assert la.solve_in_lattice((), (1, 0)) is None


def test_rational_spaces():
    fixed = la.kernel([la.fvec((-1, 1)), la.fvec((1, -1))], 2)
    assert len(fixed) == 1
    assert la.span_dim(fixed + [(2, 2)]) == 1  # (2, 2) is in the fixed line
    assert la.span_dim(fixed + [(1, -1)]) == 2
    assert la.span_dim([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert la.rref([(0, 2, 4), (1, 1, 1)]) == ([(1, 0, -1), (0, 1, 2)], [0, 1])


def test_matrix_order():
    assert la.matrix_order(((0, -1), (1, 0))) == 4
    assert la.matrix_order(((1, 1), (0, 1))) is None
