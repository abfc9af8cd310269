"""Linear algebra over a prime field F_q, shared by the Hall and Hecke
suites, in plain Python (no numpy).

Matrices are tuples of row tuples with entries in range(q).  A matrix with
no rows cannot carry its column count, so the helpers that need it take it
as an argument.  Only prime q is supported: inverses are Fermat powers.
"""

from __future__ import annotations

import itertools

Matrix = tuple  # tuple of row tuples over F_q

# Miller-Rabin with the primes up to 41 as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, Math.
# Comp. 86, 2017); the bases up to 37 alone pass 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin with the prime bases 2, ..., 41, exact
    below ``MR_EXACT_BELOW``; ValueError at or above it."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"q={n} is too large: primality is decided only "
                         f"below {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mat_mul(a: Matrix, b: Matrix, q: int, cols: int | None = None) -> Matrix:
    """Product ab; ``cols`` gives the width when b has no rows."""
    if b:
        columns = tuple(zip(*b))
    else:
        columns = ((),) * (cols or 0)
    return tuple(tuple(sum(map(int.__mul__, row, col)) % q for col in columns)
                 for row in a)


def mat_vec(m: Matrix, v, q: int) -> tuple:
    return tuple(sum(map(int.__mul__, row, v)) % q for row in m)


def _eliminate(m, q: int) -> tuple[list[list[int]], int]:
    """Gauss-Jordan elimination over F_q: the reduced row echelon form of
    m, as lists, with its rank."""
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if rows[r][col] % q:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] % q:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % q
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rows, rank


def mat_inv(m: Matrix, q: int) -> Matrix:
    """Inverse of a square matrix over F_q; ValueError when singular."""
    n = len(m)
    rows, _rank = _eliminate(
        [list(row) + [1 if r == c else 0 for c in range(n)]
         for r, row in enumerate(m)], q)
    # [m | I] reduces to [I | m^-1] exactly when m is invertible; otherwise
    # some pivot falls right of the diagonal and leaves a 0 on it
    if any(rows[i][i] != 1 for i in range(n)):
        raise ValueError(f"matrix {m} is singular mod {q}")
    return tuple(tuple(row[n:]) for row in rows)


def echelon(rows, q: int) -> Matrix:
    """The reduced row echelon basis of the span of ``rows``."""
    reduced, rank = _eliminate(rows, q)
    return tuple(map(tuple, reduced[:rank]))


def nullspace(m, q: int, cols: int) -> Matrix:
    """A basis of {x in F_q^cols : m x = 0}: one vector per free column f
    of the echelon form, in increasing order of f, with x_f = 1, 0 at the
    other free columns, and -row[f] at each row's pivot."""
    reduced, rank = _eliminate(m, q)
    pivots = [row.index(1) for row in reduced[:rank]]
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        vec = [0] * cols
        vec[f] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f] % q
        basis.append(tuple(vec))
    return tuple(basis)


def _reduce(u, basis, q: int) -> tuple[list[int], list[int]]:
    """Coordinates of u along a reduced row echelon basis, which are its
    entries at the pivots, and the residual u - sum_j coords_j row_j.
    Each row is 0 at the other rows' pivots, so the residual is 0 exactly
    when u is in the span, and its entries off the pivots are the
    coordinates of u modulo the span."""
    coords = [u[row.index(1)] for row in basis]   # pivot: first nonzero
    residual = list(u)
    for c, row in zip(coords, basis):
        if c:
            residual = [(x - c * y) % q for x, y in zip(residual, row)]
    return coords, residual


def subspaces(dim: int, q: int, k: int | None = None) -> list[Matrix]:
    """Every subspace of F_q^dim (of dimension k, when given), each as its
    reduced row echelon basis: per choice of pivot columns, every value of
    the entries right of a pivot outside the pivot columns."""
    out = []
    for size in range(dim + 1) if k is None else (k,):
        for pivots in itertools.combinations(range(dim), size):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, dim) if c not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[int(c == p) for c in range(dim)] for p in pivots]
                for (i, c), x in zip(free, values):
                    rows[i][c] = x
                out.append(tuple(map(tuple, rows)))
    return out


def all_matrices(rows: int, cols: int, q: int):
    """Every rows x cols matrix over F_q, entries in row-major base-q order."""
    for flat in itertools.product(range(q), repeat=rows * cols):
        yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))


def _primitive_root(q: int) -> int:
    """The least w generating the multiplicative group of F_q: the least
    w with w^((q-1)/p) != 1 for every prime p dividing q - 1."""
    primes = []
    n, p = q - 1, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return next(w for w in range(2, q)
                if all(pow(w, (q - 1) // p, q) != 1 for p in primes))


def _gl_generators(n: int, q: int) -> list[Matrix]:
    """Generators of GL(n, F_q): diag(w, 1, ..., 1) for a primitive root w
    (left out at q = 2, where it is the identity) and the transvections
    I + E_ij, which generate SL(n, F_q) since q is prime."""
    gens = []
    if n and q > 2:
        w = _primitive_root(q)
        gens.append(tuple(tuple(w if r == c == 0 else int(r == c)
                                for c in range(n)) for r in range(n)))
    for i, j in itertools.permutations(range(n), 2):
        gens.append(tuple(tuple(int(r == c or (r, c) == (i, j))
                                for c in range(n)) for r in range(n)))
    return gens

