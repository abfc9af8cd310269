import itertools
from fractions import Fraction

import pytest

from spancalc.exact import extend_group
from spancalc.fq import (
    MR_EXACT_BELOW,
    _gl_generators,
    _primitive_root,
    all_matrices,
    echelon,
    is_prime,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    subspaces,
)

from helpers import generated_group, identity, mat_rank, vertexwise_product

# (rows, cols) shapes small enough to enumerate every matrix at each q
SHAPES = {2: [(r, c) for r in range(4) for c in range(4) if r * c <= 9],
          3: [(r, c) for r in range(4) for c in range(4) if r * c <= 6],
          5: [(r, c) for r in range(3) for c in range(3) if r * c <= 4]}


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division(n)]


def test_is_prime_on_large_numbers():
    assert is_prime(10 ** 18 + 3) and not is_prime(10 ** 18 + 1)
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    # the least strong pseudoprime to the prime bases up to 37
    assert not is_prime(399165290221 * 798330580441)
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BELOW)


def test_primitive_root_is_the_least_generator():
    for q in filter(is_prime, range(3, 400)):
        assert _primitive_root(q) == next(
            w for w in range(2, q)
            if len({pow(w, k, q) for k in range(q - 1)}) == q - 1)


def span(rows, q: int, n: int) -> set:
    """Every linear combination of the rows, by enumeration."""
    return {tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q
                  for i in range(n))
            for coeffs in itertools.product(range(q), repeat=len(rows))}


@pytest.mark.parametrize("q", sorted(SHAPES))
def test_rank_inverse_and_nullspace_against_enumeration(q):
    for r, c in SHAPES[q]:
        vectors = list(itertools.product(range(q), repeat=c))
        for m in all_matrices(r, c, q):
            image = {mat_vec(m, v, q) for v in vectors}
            kernel = {v for v in vectors if not any(mat_vec(m, v, q))}
            rank = mat_rank(m, q)
            assert len(image) == q ** rank
            basis = nullspace(m, q, c)
            assert len(basis) == c - rank
            assert span(basis, q, c) == kernel
            assert echelon(m, q) == echelon(echelon(m, q), q)
            assert span(echelon(m, q), q, c) == span(m, q, c)
            if r == c:
                if rank == r:
                    inv = mat_inv(m, q)
                    assert mat_mul(m, inv, q) == identity(r)
                    assert mat_mul(inv, m, q) == identity(r)
                else:
                    with pytest.raises(ValueError):
                        mat_inv(m, q)


def test_mat_mul_with_empty_factors():
    assert mat_mul(((1, 2),), ((), ()), 3, cols=0) == ((),)
    assert mat_mul(((), ()), (), 3, cols=2) == ((0, 0), (0, 0))
    assert mat_mul((), ((1,),), 3) == ()


@pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3, 5) for n in (0, 1, 2)]
                         + [(3, 2), (3, 3)])
def test_gl_order_from_generators(n, q):
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    group = generated_group([(s,) for s in _gl_generators(n, q)], (n,), q)
    assert len(group) == order
    if n <= 2:
        assert group == {(m,) for m in all_matrices(n, n, q)
                         if mat_rank(m, q) == n}


def test_generated_extends_a_closed_group_in_place():
    q = 3
    one, times = (identity(2),), vertexwise_product((2,), q)
    gens = [(s,) for s in _gl_generators(2, q)]
    group = extend_group({one}, gens[:1], one, times)
    assert len(group) == q - 1           # diag(w, 1) for a primitive root w
    same = extend_group(group, gens[:2], one, times)
    assert same is group
    assert group == generated_group(gens[:2], (2,), q)


def test_subspaces_take_their_dimension():
    # every caller lists one dimension at a time
    with pytest.raises(TypeError):
        subspaces(2, 2)
    assert subspaces(2, 2, 1) == [((1, 0),), ((1, 1),), ((0, 1),)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_subspaces_against_gaussian_binomials_and_enumeration(q):
    for n in range(4):
        for k in range(n + 1):
            gaussian = Fraction(1)
            for i in range(k):
                gaussian *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
            spaces = subspaces(n, q, k)
            assert len(spaces) == len(set(spaces)) == gaussian
            if q ** (k * n) <= 3 ** 6:
                # the echelon bases of all k x n matrices of rank k
                assert set(spaces) == {
                    echelon(m, q) for m in all_matrices(k, n, q)
                    if mat_rank(m, q) == k}
