"""Topmost eigenpairs of a Hermitian block-tridiagonal matrix, in numpy
alone.

H has n diagonal blocks D_i (n, m, m), Hermitian, real or complex, and
n - 1 blocks C_i coupling node i to node i + 1 (index node * m + band).
The couplings must be real symmetric, so C_i is also the block coupling
node i + 1 back to node i (C_i^H = C_i): they are stored once, as one
real (n - 1, m, m) array, and ``_top_eigenvectors`` rejects any other.
The quantum well of ``qw`` meets this contract (its docstring gives the
proof).

``_top_eigenvectors`` finds the k topmost eigenpairs for a shift above
the spectrum by shift-invert block subspace iteration, factoring the
shifted matrix by block cyclic reduction with every pivot checked.
Complex diagonal blocks are applied through their real embeddings
(``_embed``) on right-hand sides stored as [Re x; Im x] node by node,
(n, 2m, p), which is (n, 2, m, p): the real couplings act on both halves
of the second layout, so they are never embedded.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .states import NumericalError

# the seed of the solver's fixed start block
_START_SEED = 20240817
# the subspace iteration stops when every wanted Ritz pair has
# |H x - theta x| below this (eV), or below 100 round-offs of the largest
# entry of H on grids so fine that 1e-11 eV is out of reach, and fails
# after this many Rayleigh-Ritz steps
_RESIDUAL_TOL_EV = 1e-11
_MAX_ITERATIONS = 200
# block cyclic reduction stops at this many nodes and inverts them densely
_DENSE_NODES = 8


# kp_bulk has the same helper, but the solver imports no physics module
def _herm(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _dense(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The block-tridiagonal Hermitian matrix of diagonal blocks ``diag``
    (n, m, m) and blocks ``upper`` (n - 1, m, m) coupling node i to
    i + 1, as a dense (n, m, n, m) array (node, band, node, band)."""
    n, m = diag.shape[:2]
    dense = np.zeros((n, m, n, m), diag.dtype)
    i = np.arange(n)
    dense[i, :, i] = diag
    dense[i[:-1], :, i[1:]] = upper
    dense[i[1:], :, i[:-1]] = _herm(upper)
    return dense


def _block_apply(diag: np.ndarray, couplings: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """H x for the diagonal blocks ``diag`` (n, m, m) and the real
    symmetric ``couplings`` (n - 1, m, m) of H, and x (n, m, p) (node,
    band, vector); for embedded blocks (n, 2m, 2m), x (n, 2m, p) in the
    ``_to_real`` layout, whose halves the couplings act on alike."""
    y = diag @ x
    halves = x.reshape(len(x), -1, couplings.shape[-1], x.shape[-1])
    out = y.reshape(halves.shape)
    couplings = couplings[:, None]
    out[:-1] += couplings @ halves[1:]
    out[1:] += couplings @ halves[:-1]
    return y


def _embed(a: np.ndarray) -> np.ndarray:
    """Real embeddings E(A) = [[Re A, -Im A], [Im A, Re A]] (..., 2m, 2m)
    of complex matrices A (..., m, m).

    E(A) [Re x; Im x] = [Re A x; Im A x] and E(A B) = E(A) E(B), so a
    product of complex blocks runs as one real product of twice the size,
    and E(A^H) is E(A)^T entry for entry.
    """
    m = a.shape[-1]
    e = np.empty(a.shape[:-2] + (2 * m, 2 * m))
    e[..., :m, :m] = e[..., m:, m:] = a.real
    e[..., m:, :m] = a.imag
    e[..., :m, m:] = -a.imag
    return e


def _embed_factor(factor, m: int):
    """The ``_cr_factor`` of complex m x m blocks with every stored matrix
    replaced by its ``_embed``, so ``_cr_solve`` runs in real arithmetic
    on right-hand sides in the ``_to_real`` layout (n, 2m, p).

    The levels are replaced in place, so each complex level is dropped as
    it is embedded, and the conjugate transposes become transposed views
    of the embedded multipliers.  The dense inverse of the last nodes is
    embedded node block by node block, so its rows follow the node-major
    (node, 2m) layout of the right-hand side.
    """
    levels, last = factor
    for i, (inverse, right, left, _, _) in enumerate(levels):
        right, left = _embed(right), _embed(left)
        levels[i] = (_embed(inverse), right, left,
                     np.swapaxes(right, -1, -2), np.swapaxes(left, -1, -2))
    size = len(last)
    nodes = last.reshape(size // m, m, size // m, m).swapaxes(1, 2)
    return levels, _embed(nodes).swapaxes(1, 2).reshape(2 * size, 2 * size)


def _to_real(x: np.ndarray) -> np.ndarray:
    """[Re x; Im x] node by node: (n, 2m, p) real from x (n, m, p)."""
    n, m, p = x.shape
    y = np.empty((n, 2 * m, p))
    y[:, :m] = x.real
    y[:, m:] = x.imag
    return y


def _from_real(y: np.ndarray) -> np.ndarray:
    """The complex x (n, m, p) of ``_to_real(x) = y``."""
    n, m2, p = y.shape
    x = np.empty((n, m2 // 2, p), complex)
    x.real = y[:, :m2 // 2]
    x.imag = y[:, m2 // 2:]
    return x


def _hpd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of Hermitian positive definite matrices (..., m, m), from
    their Cholesky factors; a matrix that is not positive definite raises
    ``NumericalError``."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "the shifted QW matrix is not positive definite, so the shift "
            "does not lie above the spectrum") from exc
    inverse = np.linalg.inv(chol)
    return _herm(inverse) @ inverse


def _cr_factor(diag: np.ndarray, upper: np.ndarray):
    """Odd-even block cyclic reduction (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 7, 627 (1970)) of the Hermitian positive definite
    block-tridiagonal M with diagonal blocks ``diag`` (n, m, m) and
    ``upper[i]`` coupling node i to node i + 1 (n - 1, m, m).

    Each level eliminates the odd nodes in one batched step; the even
    nodes keep a block-tridiagonal Schur complement, which is reduced in
    turn until at most ``_DENSE_NODES`` nodes are left, and those are
    inverted as one dense matrix.  This is a block Cholesky factorization
    in odd-even order, so M is positive definite exactly when every
    eliminated pivot block and the last dense matrix are, and each is
    checked by ``_hpd_inverse``.  Returns the levels (inverse pivots and
    the multipliers of both neighbours, with their conjugate transposes)
    and the dense inverse of the last nodes.
    """
    levels = []
    while len(diag) > _DENSE_NODES:
        half = (len(diag) + 1) // 2
        inverse = _hpd_inverse(diag[1::2])
        to_odd = upper[0::2]            # even node 2t -> odd node 2t + 1
        from_odd = upper[1::2]          # odd node 2t + 1 -> even 2t + 2
        right = to_odd @ inverse
        left = _herm(from_odd) @ inverse[:half - 1]
        diag = diag[0::2].copy()
        diag[:len(right)] -= right @ _herm(to_odd)
        diag[1:] -= left @ from_odd
        upper = -right[:half - 1] @ from_odd
        levels.append((inverse, right, left, _herm(right), _herm(left)))
    size = diag.shape[0] * diag.shape[1]
    return levels, _hpd_inverse(_dense(diag, upper).reshape(size, size))


def _cr_solve(factor, b: np.ndarray) -> np.ndarray:
    """M^-1 b for the ``_cr_factor`` of M and b of shape (n, m, p)."""
    levels, last = factor
    b = b.astype(np.result_type(b, last), copy=False)
    eliminated = []
    for _, right, left, _, _ in levels:
        odd = b[1::2]
        b = b[0::2].copy()
        b[:len(odd)] -= right @ odd
        b[1:] -= left @ odd[:len(b) - 1]
        eliminated.append(odd)
    x = (last @ b.reshape(len(last), -1)).reshape(b.shape)
    for (inverse, _, _, right_h, left_h), odd in zip(reversed(levels),
                                                      reversed(eliminated)):
        y = inverse @ odd - right_h @ x[:len(odd)]
        y[:len(x) - 1] -= left_h @ x[1:]
        full = np.empty((len(x) + len(odd),) + x.shape[1:], x.dtype)
        full[0::2] = x
        full[1::2] = y
        x = full
    return x


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns of y (dim, p).

    Two passes of Cholesky QR: a p x p Gram matrix and two small
    products.  The Householder QR of ``np.linalg.qr`` costs two to three
    times more on these tall blocks (0.36-0.5 ms against 0.17 ms for
    1809 x 10 on 2 cores) and, probably because OpenBLAS splits it over
    threads, stalls when the other core is busy.  A block so
    ill-conditioned that a Cholesky factorization fails takes the
    Householder QR.
    """
    q = y
    try:
        for _ in range(2):
            inverse = np.linalg.inv(np.linalg.cholesky(np.conj(q.T) @ q))
            q = q @ _herm(inverse)
    except np.linalg.LinAlgError:
        return np.linalg.qr(y)[0]
    return q


def _start_block(rows: int, cols: int) -> np.ndarray:
    """The solver's fixed start block (rows, cols), uniform on [-1, 1).

    Entry i (row-major) is the SplitMix64 output (Steele, Lea & Flood,
    OOPSLA 2014) for the state i + ``_START_SEED``, its top 53 bits
    mapped to [-1, 1): a generic block, the same bits on every call and
    numpy version, with no ``numpy.random`` import.  Only uint64 arrays
    and ``np.uint64`` constants enter the arithmetic, so it wraps modulo
    2^64 without warnings under either numpy casting rule.
    """
    z = np.arange(rows * cols, dtype=np.uint64) + np.uint64(_START_SEED)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    top = (z >> np.uint64(11)).astype(float)
    return (top * 2.0 ** -52 - 1.0).reshape(rows, cols)


def _rayleigh_ritz(apply, q: np.ndarray, k: int):
    """Rayleigh-Ritz of the Hermitian operator ``apply`` on the span of
    the orthonormal columns of q (dim, p): the Ritz values (p,) and
    vectors (dim, p), descending, and the largest residual norm
    |H x - theta x| of the first k pairs."""
    hq = apply(q)
    theta, w = np.linalg.eigh(np.conj(q.T) @ hq)
    theta, w = theta[::-1], w[:, ::-1]
    x = q @ w
    residual = np.linalg.norm(hq @ w[:, :k] - x[:, :k] * theta[:k],
                              axis=0).max()
    return theta, x, residual


def _top_eigenvectors(diag: np.ndarray, couplings: np.ndarray, sigma: float,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k topmost eigenpairs, descending, of the block-tridiagonal H of
    diagonal blocks ``diag`` (n, m, m) and real symmetric ``couplings``
    (n - 1, m, m), with sigma above its spectrum: Ritz values (k,) and
    Ritz vectors (n, m, k).

    Shift-invert block subspace iteration with Chebyshev acceleration
    (Rutishauser, Numer. Math. 16, 205 (1970)): a block of p = min(mn,
    max(2k, k + 8)) vectors, started from the hashed uniform block of
    ``_start_block`` (complex blocks pair its columns), is
    orthonormalized (``_orthonormal``) and H is diagonalized on its span
    (Rayleigh-Ritz).  The first step multiplies the block by
    A = (sigma I - H)^-1 (``_cr_solve``); each later one by the degree-3
    Chebyshev polynomial of A that stays within [-1, 1] on [0, c], with
    c = 1 / (sigma - theta_p) from the lowest Ritz value theta_p, which
    grows the wanted directions far faster than A^3 for the same three
    solves.  It stops when every wanted Ritz pair has
    |H x - theta x| <= ``_RESIDUAL_TOL_EV`` (or 100 eps max |H_ij|, if
    larger) and raises ``NumericalError`` with the residual after
    ``_MAX_ITERATIONS`` steps.

    Complex diagonal blocks are factored in complex arithmetic, so every
    pivot check is the same, and then every stored matrix of the factor
    and the diagonal blocks are replaced by their real embeddings
    (``_embed_factor``, ``_embed``); the couplings stay as they are.
    Each solve and each product with H then runs as real products on the
    ``_to_real`` layout: on blocks this small, numpy's stacked complex
    matmul costs more than the real product of the embedding, which is
    twice the size (at N = 61, m = 6, p = 12 on one core a solve took
    about 165 against 90-115 us; the embedding costs about 0.1 ms per
    factor and each layout conversion about 5 us).  The Ritz vectors stay
    complex, so the orthonormalization, Rayleigh-Ritz and residual are
    the same; results move at round-off only.  ``_rayleigh_ritz`` keeps
    its block products to itself, so the filter's solves run without
    them.  Real blocks take none of this.
    """
    if np.iscomplexobj(couplings) or not np.array_equal(
            couplings, np.swapaxes(couplings, -1, -2)):
        raise ValueError("the couplings must be real symmetric")
    n, m = diag.shape[:2]
    dim = m * n
    factor = _cr_factor(sigma * np.eye(m) - diag, -couplings)
    p = min(dim, max(2 * k, k + 8))
    tol = max(_RESIDUAL_TOL_EV, 100.0 * np.finfo(float).eps * max(
        np.abs(diag).max(), np.abs(couplings).max(initial=0.0)))
    embedded = np.iscomplexobj(diag)
    if embedded:
        factor = _embed_factor(factor, m)
        diag = _embed(diag)

    def through(op, v):
        v = v.reshape(n, m, p)
        return (_from_real(op(_to_real(v))) if embedded
                else op(v)).reshape(dim, p)

    solve = partial(through, partial(_cr_solve, factor))
    apply = partial(through, partial(_block_apply, diag, couplings))
    x = _start_block(dim, 2 * p).view(complex) \
        if embedded else _start_block(dim, p)
    y = solve(x)
    for _ in range(_MAX_ITERATIONS):
        theta, x, residual = _rayleigh_ritz(apply, _orthonormal(y), k)
        if residual <= tol:
            return theta[:k], x[:, :k].reshape(n, m, k)
        scale = 2.0 * (sigma - theta[-1])
        previous, y = x, scale * solve(x) - x
        for _ in range(2):
            previous, y = y, 2.0 * (scale * solve(y) - y) - previous
    raise NumericalError(
        f"shift-invert QW eigensolve did not converge in {_MAX_ITERATIONS} "
        f"iterations: residual {residual:.3g} eV exceeds {tol:.3g} eV")
