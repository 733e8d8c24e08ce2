"""Fixture: R5-clean module -- front-door factorization, hoisted assembly."""

from scipy.sparse import csr_matrix

from repro.linalg import factorize

_lu_cache = {}


def _factorize(matrix, key):
    lu = _lu_cache.get(key)
    if lu is None:
        lu = factorize(matrix)
        _lu_cache[key] = lu
    return lu


def solve_all(blocks, keys, rhs):
    matrix = csr_matrix(blocks).tocsc()
    return [_factorize(matrix, key).solve(rhs) for key in keys]
