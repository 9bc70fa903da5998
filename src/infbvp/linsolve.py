"""Structured linear solve of the Newton system J delta = rhs.

J has N interval block rows, each coupling two neighbouring nodes,
closed by one boundary block row that couples node 0 and the node at
infinity. It is solved by the structured-QR cyclic reduction of Wright,
"Stable parallel algorithms for two-point boundary value problems"
(SIAM J. Sci. Stat. Comput. 13, 1992). Each pairwise level pairs
adjacent block rows and removes the node they share. All p pairs of a
level sit in one augmented (2d, 3d+1, p) slab, the pair blocks with the
rows' other blocks and right-hand sides, and d Householder reflections
applied in place triangularize every pair block at once, so Q is never
formed. This repeats while more than 64 block rows remain, or more than
16 that four does not divide. Below that a level costs numpy's per-call
floor whatever its size, so one grouped stage takes the rest: the same
orthogonal elimination on runs of four consecutive rows, whose three
interior nodes go with one batched Householder QR of every group's
(4d, 3d) interior columns and one batched matmul that applies each
group's Q.T to its rows. The at most 16 rows left and the boundary row
form one dense system on the remaining nodes, solved by one Householder
QR, and back-substitution recovers the removed nodes, the groups' first.
Orthogonal transforms keep the growing modes of the linearization from
being amplified, which condensation onto delta_0 (discrete shooting)
does not, and the tail is QR rather than LU for the same reason: partial
pivoting can be unstable on exactly these matrices (Wright, "A
collection of problems for which Gaussian elimination with partial
pivoting is unstable", SIAM J. Sci. Comput. 14, 1993).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingularSystemError",
    "StructuredJacobian",
    "linear_solve",
]

_EPS = float(np.finfo(float).eps)
# A system of at most this many block rows goes to the dense tail as it
# is: below it a reduction's fixed cost of small numpy calls outweighs
# one dense QR of the rest.
_TAIL_ROWS = 16
# Pairwise levels run while more than _GROUPED_ROWS rows remain, or more
# than _TAIL_ROWS that _GROUP_ROWS does not divide; then the grouped stage
# takes runs of _GROUP_ROWS rows, leaving at most _TAIL_ROWS.
_GROUP_ROWS = 4
_GROUPED_ROWS = _GROUP_ROWS * _TAIL_ROWS


class SingularSystemError(RuntimeError):
    """The structured linear system could not be factorized."""


@dataclass(frozen=True, eq=False)
class StructuredJacobian:
    """Jacobian of the discrete system in its natural block sparsity.

    Interval block row n couples only U_n and U_{n+1}; the boundary row
    couples U_0 and U_N. Logical shape is d*(N+1) square.

    The first linear_solve on a Jacobian keeps its factors here and makes
    the four block arrays read-only, so later solves with the same
    Jacobian replay the factors on the new right-hand side and can never
    meet blocks changed since.
    """

    dU_n: np.ndarray      # (N, d, d) derivative of interval block n w.r.t. U_n
    dU_next: np.ndarray   # (N, d, d) derivative of interval block n w.r.t. U_{n+1}
    dg_0: np.ndarray      # (d, d) boundary block w.r.t. U_0
    dg_N: np.ndarray      # (d, d) boundary block w.r.t. U_N
    _factors: tuple | None = field(default=None, init=False, repr=False)  # set by linear_solve

    @property
    def d(self) -> int:
        return self.dU_n.shape[1]

    @property
    def N(self) -> int:
        return self.dU_n.shape[0]


def linear_solve(jacobian: StructuredJacobian, rhs) -> np.ndarray:
    """Solve jacobian @ delta = rhs; returns the correction field (N+1, d).

    O(d^3 N) work. The first call on a Jacobian factors it, with rhs
    carried along, keeps the factors on it and makes its blocks read-only.
    A later call on the same Jacobian replays the factors on its rhs, with
    no refactorization. The rhs columns are the one piece of the factors a
    solve writes, so one Jacobian serves one solve at a time. Raises
    SingularSystemError, naming the node, when a pair or group block is
    rank-deficient or the dense tail has a zero pivot; such a Jacobian
    keeps no factors, so another call raises the same error.
    """
    d, N = jacobian.d, jacobian.N
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != ((N + 1) * d,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {(N + 1) * d}")
    r = rhs[: N * d].reshape(N, d).T
    factors = jacobian._factors
    # Non-finite blocks are not flagged: their NaNs reach delta, which
    # newton_solve reports as a diverged iterate, and no warning leaks.
    with np.errstate(all="ignore"):
        if factors is None:
            (levels, groups, Q, R), r = _factor(jacobian, r)
        else:
            levels, groups, Q, R = factors
            r = _replay(levels, groups, r)
        try:
            x = np.linalg.solve(R, Q.T @ np.concatenate((r.T.ravel(), rhs[N * d:])))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"end system on nodes 0 and {N} is singular") from exc
        # x holds the solution on the tail's nodes, components first.
        x = _back_substitute(levels, groups, x.reshape(-1, d).T)
    if factors is None:
        for block in (jacobian.dU_n, jacobian.dU_next, jacobian.dg_0, jacobian.dg_N):
            block.setflags(write=False)
        object.__setattr__(jacobian, "_factors", (levels, groups, Q, R))
    return x.T.copy()


def _factor(jacobian: StructuredJacobian, r: np.ndarray):
    """The reduction with the rhs rows r (d, N) carried along, and the QR
    factors of the dense tail.

    Returns the factors (levels, groups, Q, R) and the rhs rows left for
    the tail. levels holds per pairwise level the (2d, 3d+1, p) slab, the
    diagonals alpha as one (d, p) array, row j for reflection j, and per
    reflection j the scaled reflection vector v / (alpha_j v_1) of shape
    (2d-j, p); the vectors v themselves stay in the slab's columns. groups
    is the grouped stage's (Q.T, R, top), see _factor_groups, or None when
    the levels left at most 16 rows. Raises SingularSystemError at the first
    level with a rank-deficient pair or group block, naming the node its
    first such pair shares or its first such group removes.
    """
    d = jacobian.d
    # Row k of a level reads left[k] @ x[k] + right[k] @ x[k+1] = r[k] on
    # the level's own nodes, held components first with rows on the last
    # axis: left[:, :, k]. Rows 2k and 2k+1 share node 2k+1. Their slab
    # has the columns [shared node | outer node of row 2k+1 | outer node
    # of row 2k | rhs]; once the shared columns are triangular, the top d
    # rows recover the shared node and the bottom d rows are the next
    # level's rows [right | left | r]. An odd row out is carried up as is.
    left = jacobian.dU_n.transpose(1, 2, 0)
    right = jacobian.dU_next.transpose(1, 2, 0)
    levels = []
    while (m := r.shape[-1]) > _GROUPED_ROWS or (m > _TAIL_ROWS and m % _GROUP_ROWS):
        p = m // 2
        slab = np.zeros((2 * d, 3 * d + 1, p))
        slab[:d, :d] = right[..., : 2 * p: 2]
        slab[:d, 2 * d: 3 * d] = left[..., : 2 * p: 2]
        slab[:d, 3 * d] = r[..., : 2 * p: 2]
        slab[d:, :d] = left[..., 1: 2 * p: 2]
        slab[d:, d: 2 * d] = right[..., 1: 2 * p: 2]
        slab[d:, 3 * d] = r[..., 1: 2 * p: 2]
        shared = slab[:, :d]
        scale = np.sqrt(np.einsum("ijk,ijk->jk", shared, shared))
        alphas, scaled = np.empty((d, p)), []
        for j in range(d):
            # H = I - 2 v v^T / (v^T v) with v = x + alpha e_1 maps
            # column x to -alpha e_1, and v^T v = 2 alpha v_1. Column j
            # keeps v, and alpha = -R_jj is kept for back-substitution.
            v = slab[j:, j]
            alpha = np.copysign(np.sqrt(np.einsum("ik,ik->k", v, v)), v[0], out=alphas[j])
            v[0] += alpha
            rest = slab[j:, j + 1:]
            scaled.append(v / (alpha * v[0]))
            rest -= scaled[j][:, None] * np.einsum("ik,ijk->jk", v, rest)
        # |alpha| is the pivot, and one at roundoff of its column's norm
        # leaves the shared node undetermined. Only a level's last node is
        # ever carried, so pair k of level l shares grid node (2k+1) 2^l.
        deficient = (np.abs(alphas) <= (2 * d * _EPS) * scale) & np.isfinite(scale)
        if np.logical_or.reduce(deficient, axis=None):
            pair = int(np.logical_or.reduce(deficient, axis=0).argmax())
            raise SingularSystemError("cyclic reduction hit a rank-deficient pair block at node "
                                      f"{(2 * pair + 1) << len(levels)}")
        levels.append((slab, alphas, scaled))
        rows = (slab[d:, d: 2 * d], slab[d:, 2 * d: 3 * d], slab[d:, 3 * d])
        if m > 2 * p:
            rows = [np.concatenate((new, old[..., 2 * p:]), axis=-1)
                    for new, old in zip(rows, (right, left, r))]
        right, left, r = rows

    groups = None
    if r.shape[-1] > _TAIL_ROWS:
        groups, (left, right, r) = _factor_groups(left, right, r, len(levels))

    # The m remaining rows and the boundary row, in grid order, as one
    # dense system; only an exactly zero pivot of R is refused.
    m = r.shape[-1]
    n = (m + 1) * d
    system = np.zeros((m + 1, d, m + 1, d))
    k = np.arange(m)
    system[k, :, k] = left.transpose(2, 0, 1)
    system[k, :, k + 1] = right.transpose(2, 0, 1)
    system[m, :, 0], system[m, :, m] = jacobian.dg_0, jacobian.dg_N
    Q, R = np.linalg.qr(system.reshape(n, n))
    return (levels, groups, Q, R), r


def _factor_groups(left: np.ndarray, right: np.ndarray, r: np.ndarray, levels: int):
    """The grouped stage on a level's rows left, right (d, d, m) and r
    (d, m), after `levels` pairwise levels, with G = 4 dividing m. Returns
    the kept (Q.T, R, top) and the rows (left, right, r) it leaves for the
    tail.

    The rows form q = m / G runs of G: group g couples nodes Gg .. G(g+1),
    and the G-1 between its two outer nodes are interior. None of them is
    the level's last node, so interior node k is grid node k 2^levels.
    The interior columns, (Gd, (G-1)d) and block bidiagonal, get one QR.
    R is its leading (G-1)d square, and Q.T turns the group's whole block,
    nodes in order and then the rhs, into top, its first (G-1)d rows, from
    which R recovers the interior nodes, and into the group's one next
    row, the last d rows on the outer nodes. A pivot of R at roundoff of
    its column's norm leaves that column's node undetermined and raises
    SingularSystemError naming it.
    """
    G = _GROUP_ROWS
    d, m = r.shape
    q = m // G
    # Row i of a group couples its nodes i and i+1: the group's rows are
    # one (Gd, (G+1)d+1) block, its nodes' columns in order, then the rhs.
    block = np.zeros((q, G, d, (G + 1) * d + 1))
    nodes = block[..., :-1].reshape(q, G, d, G + 1, d)
    i = np.arange(G)
    nodes[:, i, :, i] = left.reshape(d, d, q, G).transpose(3, 2, 0, 1)
    nodes[:, i, :, i + 1] = right.reshape(d, d, q, G).transpose(3, 2, 0, 1)
    block[..., -1] = r.reshape(d, q, G).transpose(1, 2, 0)
    block = block.reshape(q, G * d, -1)
    interior = block[..., d: G * d]
    Q, R = np.linalg.qr(interior, mode="complete")
    R = R[:, : (G - 1) * d]
    scale = np.sqrt(np.einsum("gij,gij->gj", interior, interior))
    pivots = np.abs(R.diagonal(axis1=1, axis2=2))
    deficient = (pivots <= (G * d * _EPS) * scale) & np.isfinite(scale)
    if np.logical_or.reduce(deficient, axis=None):
        group = int(np.logical_or.reduce(deficient, axis=1).argmax())
        node = G * group + 1 + int(deficient[group].argmax()) // d
        raise SingularSystemError("cyclic reduction hit a rank-deficient pair block at node "
                                  f"{node << levels}")
    QT = Q.transpose(0, 2, 1)
    block = QT @ block
    top, rows = block[:, : (G - 1) * d], block[:, (G - 1) * d:]
    return (QT, R, top), (rows[..., :d].transpose(1, 2, 0),
                          rows[..., G * d: -1].transpose(1, 2, 0), rows[..., -1].T)


def _replay(levels, groups, r: np.ndarray) -> np.ndarray:
    """_factor's reduction of new rhs rows r (d, N), written to the kept
    rhs columns and transformed there alone; returns the tail rows."""
    for slab, _, scaled in levels:
        d, p = len(scaled), slab.shape[-1]
        column = slab[:, 3 * d]
        column[:d] = r[:, : 2 * p: 2]
        column[d:] = r[:, 1: 2 * p: 2]
        for j in range(d):
            column[j:] -= scaled[j] * np.einsum("ik,ik->k", slab[j:, j], column[j:])
        r = column[d:] if r.shape[-1] == 2 * p else np.concatenate((column[d:], r[:, 2 * p:]), axis=-1)
    if groups is not None:
        QT, _, top = groups
        d, q = r.shape[0], top.shape[0]
        column = QT @ r.reshape(d, q, _GROUP_ROWS).transpose(1, 2, 0).reshape(q, -1, 1)
        top[..., -1] = column[:, :-d, 0]
        r = column[:, -d:, 0].T
    return r


def _back_substitute(levels, groups, x: np.ndarray) -> np.ndarray:
    """Recover the removed nodes, the grouped stage's and then level by
    level, from the solution x (d, m+1) on the tail's nodes; returns it on
    all N+1 nodes.

    A group's interior nodes z solve R z = top @ [-x_0 | 0 | -x_G | 1],
    with x_0 and x_G its outer nodes: top's interior columns are R itself.
    With a pair's unknowns z in slab column order and -1 for the rhs, top
    row i reads -alpha_i z[i] + sum_{c>i} slab[i, c] z[c] = 0.
    """
    if groups is not None:
        _, R, top = groups
        d, q = x.shape[0], R.shape[0]
        outer = np.zeros((q, top.shape[-1], 1))
        outer[:, :d, 0] = -x[:, :-1].T
        outer[:, _GROUP_ROWS * d: -1, 0] = -x[:, 1:].T
        outer[:, -1] = 1.0
        z = np.linalg.solve(R, top @ outer)
        nodes = np.empty((d, q, _GROUP_ROWS))
        nodes[..., 0] = x[:, :-1]
        nodes[..., 1:] = z.reshape(q, _GROUP_ROWS - 1, d).transpose(2, 0, 1)
        x = np.concatenate((nodes.reshape(d, -1), x[:, -1:]), axis=1)
    for slab, alphas, _ in reversed(levels):
        d, p = alphas.shape
        z = np.empty((3 * d + 1, p))
        z[d: 2 * d] = x[:, 1: p + 1]
        z[2 * d: 3 * d] = x[:, :p]
        z[3 * d] = -1.0
        for i in range(d - 1, -1, -1):
            z[i] = np.einsum("jk,jk->k", slab[i, i + 1:], z[i + 1:]) / alphas[i]
        finer = np.empty((d, x.shape[1] + p))
        finer[:, : 2 * p + 1: 2] = x[:, : p + 1]
        finer[:, 1: 2 * p: 2] = z[:d]
        finer[:, 2 * p + 1:] = x[:, p + 1:]
        x = finer
    return x
