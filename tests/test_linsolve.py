"""The structured linear solve: against a dense oracle, its kept factors
and their replay, its backward stability, and the singular systems it
refuses, each named by its node."""

import dataclasses
import warnings

import numpy as np
import pytest

from conftest import block_product, dense_jacobian, dense_linear_solve, toy_linear_problem
from infbvp import (
    GridMap,
    SingularSystemError,
    StructuredJacobian,
    assemble_jacobian,
    assemble_residual,
    build_grid,
    falkner_skan,
    initial_field,
    linear_solve,
    pile,
)
from infbvp import linsolve


def test_linear_solve_matches_dense_oracle():
    problem = pile()
    grid = build_grid(GridMap("log", 5.0), 40)
    field = initial_field(problem, grid)
    jac = assemble_jacobian(problem, grid, field, "analytic")
    rng = np.random.default_rng(19)
    rhs = rng.normal(size=(jac.N + 1) * jac.d)
    structured = linear_solve(jac, rhs)
    dense = dense_linear_solve(jac, rhs)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(structured - dense)) <= 1e-10 * (1.0 + scale)
    # and it is an actual solution of the linear system
    assert dense_jacobian(jac) @ structured.ravel() == pytest.approx(rhs, abs=1e-9 * (1.0 + scale))


def random_chain(rng, N, d):
    """A well-conditioned block system with random blocks: the interval
    rows of the midpoint rule for x' = A(t) x with step 1/N and standard
    normal A, closed by a boundary row that fixes x_0 up to a small
    coupling with x_N."""
    eye, half_step = np.eye(d), 0.5 / N
    A = rng.normal(size=(N, d, d))
    return StructuredJacobian(dU_n=-eye - half_step * A, dU_next=eye - half_step * A,
                              dg_0=eye + 0.1 * rng.normal(size=(d, d)),
                              dg_N=0.1 * rng.normal(size=(d, d)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_linear_solve_matches_dense_oracle_on_every_carry_pattern(d):
    # N = 2..16 go straight to the dense tail, and N = 20..64 that four
    # divides straight to the grouped stage. Every other N runs pairwise
    # levels until at most 64 rows that four divides, or at most 16 rows,
    # remain, so N runs across the stage's 64-row start and meets every
    # pattern of odd rows carried up by the levels on the way; 1025
    # carries one at every level, 1023 at the first level only. Either
    # way the tail keeps at most 16 rows and the boundary row. The second
    # rhs replays the factors the first solve kept.
    rows, start = linsolve._GROUP_ROWS, linsolve._GROUPED_ROWS
    rng, replay_rng = np.random.default_rng(23), np.random.default_rng(37)
    for N in [*range(2, 2 * start + 2 * rows + 2), 1023, 1025]:
        jac = random_chain(rng, N, d)
        rhs = np.stack((rng.normal(size=(N + 1) * d), replay_rng.normal(size=(N + 1) * d)))
        dense = np.linalg.solve(dense_jacobian(jac), rhs.T).T.reshape(2, N + 1, d)
        for b, oracle in zip(rhs, dense):
            structured = linear_solve(jac, b)
            scale = np.max(np.abs(oracle))
            assert structured.shape == (N + 1, d)
            assert np.max(np.abs(structured - oracle)) <= 1e-10 * (1.0 + scale), N
            assert block_product(jac, structured) == pytest.approx(b, abs=1e-9 * (1.0 + scale)), N
        assert jac._factors[3].shape[0] <= (linsolve._TAIL_ROWS + 1) * d, N
        fresh = linear_solve(StructuredJacobian(jac.dU_n, jac.dU_next, jac.dg_0, jac.dg_N), b)
        assert np.max(np.abs(structured - fresh)) <= 1e-13 * (1.0 + scale), N


def test_factored_jacobian_is_read_only():
    jac = random_chain(np.random.default_rng(31), 40, 2)
    linear_solve(jac, np.ones(41 * 2))
    for name in ("dU_n", "dU_next", "dg_0", "dg_N"):
        block = getattr(jac, name)
        with pytest.raises(ValueError, match="read-only"):
            block[(0,) * block.ndim] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(jac, name, block.copy())


def block_inf_norm(jac):
    """Largest absolute row sum of the Jacobian."""
    rows = np.abs(jac.dU_n).sum(axis=2) + np.abs(jac.dU_next).sum(axis=2)
    boundary = np.abs(jac.dg_0).sum(axis=1) + np.abs(jac.dg_N).sum(axis=1)
    return max(rows.max(), boundary.max())


@pytest.mark.parametrize(("kind", "N"), [("log", 160), ("log", 1280), ("alg", 160),
                                        ("alg", 1280), ("log", 10240)])
@pytest.mark.parametrize("make_problem", [falkner_skan, pile], ids=["falkner-skan", "pile"])
def test_linear_solve_is_backward_stable(make_problem, kind, N):
    # at the initial iterate, on both maps the CLI offers, and at the
    # fine-grid size on the log map; condensation onto delta_0 (discrete
    # shooting) gives 5e-12 to 0.17 on the N <= 1280 cases
    problem = make_problem()
    grid = build_grid(GridMap(kind, 5.0), N)
    field = initial_field(problem, grid)
    jac = assemble_jacobian(problem, grid, field, "analytic")
    # the second rhs, the residual at a perturbed field, replays the
    # factors the first solve kept
    perturbed = field + 1e-3 * np.random.default_rng(N).standard_normal(field.shape)
    for rhs in (-assemble_residual(problem, grid, field), -assemble_residual(problem, grid, perturbed)):
        delta = linear_solve(jac, rhs)
        x_norm, b_norm = np.max(np.abs(delta)), np.max(np.abs(rhs))
        backward = (np.max(np.abs(block_product(jac, delta) - rhs))
                    / (block_inf_norm(jac) * x_norm + b_norm))
        assert backward <= 1e-14


def test_singular_interval_block_is_reported():
    # no row couples the last node, so the end system cannot fix it
    jac = StructuredJacobian(
        dU_n=np.ones((2, 1, 1)),
        dU_next=np.zeros((2, 1, 1)),
        dg_0=np.eye(1), dg_N=np.zeros((1, 1)))
    for _ in range(2):  # a failed factorization keeps nothing to replay
        with pytest.raises(SingularSystemError, match="nodes 0 and 2"):
            linear_solve(jac, np.zeros(3))


def zero_node(N, row):
    """A random chain whose node row + 1 is in no row at all: both its
    blocks, in rows row and row + 1, are zero."""
    jac = random_chain(np.random.default_rng(29), N, 2)
    jac.dU_next[row] = 0.0
    jac.dU_n[row + 1] = 0.0
    return jac


@pytest.mark.parametrize("N, row, node",
                         [(40, 16, 17), (128, 1, 2), (128, 3, 4), (35, 33, 34), (67, 65, 66),
                          (40, 17, 18), (43, 4, 5), (70, 9, 10), (71, 69, 70), (160, 16, 17)],
                         ids=["level1", "level2", "level3", "carried35", "carried67", "group40",
                              "pair43", "pair70", "carried71", "pair160"])
def test_rank_deficient_pair_block_is_reported(N, row, node):
    # Up to 64 intervals that four divides, the grouped stage takes the
    # rows at once: group 4 of 40 removes nodes 17, 18 and 19. Pairwise
    # levels run on while four does not divide more than 16 rows left:
    # pair 2 of 43's first level shares node 5, and of 70's second level,
    # on the even grid nodes, node 10. The first level of 35 carries row
    # 34, of 67 row 66, and pair 8 of 35's second level shares node 34,
    # pair 16 of 67's node 66. From 65 to 128 intervals, four dividing
    # the rows one level leaves, the stage follows that level: the first
    # group of 128 removes nodes 2, 4 and 6, and the last of 71, whose
    # level carries row 70, node 70. On 160 intervals node 17 is shared
    # by pair 8 of the first pairwise level.
    jac = zero_node(N, row)
    for _ in range(2):  # a failed factorization keeps nothing to replay
        with pytest.raises(SingularSystemError, match=f"pair block at node {node}$"):
            linear_solve(jac, np.zeros((N + 1) * 2))
    jac.dU_n[row + 1] = 1.0  # and leaves the blocks writable


@pytest.mark.parametrize("N, row, message",
                         [(43, 0, "pair block at node 1"), (43, 1, "pair block at node 2"),
                          (70, 1, "pair block at node 2"),
                          (18, 1, "end system on nodes 0 and 18 is singular")],
                         ids=["43-0", "43-1", "70-1", "18-1"])
def test_a_zero_node_no_group_removes_is_named_by_a_pair_or_the_end_system(N, row, message):
    # four divides none of the row counts above 16 that 43 and 70
    # intervals reach, so pairwise levels share their first nodes: node 1
    # in the first level, node 2 in the second. 18 intervals leave 9 rows
    # after one level, and node 2, which no pair of it shares, reaches the
    # dense tail with zero columns: the tail R has a zero pivot
    with pytest.raises(SingularSystemError, match=f"{message}$"):
        linear_solve(zero_node(N, row), np.zeros((N + 1) * 2))


def test_all_zero_small_system_is_reported_as_end_system():
    # N = 2 has no pair block: the whole system is the dense tail
    jac = StructuredJacobian(
        dU_n=np.zeros((2, 1, 1)),
        dU_next=np.zeros((2, 1, 1)),
        dg_0=np.zeros((1, 1)), dg_N=np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="nodes 0 and 2"):
            linear_solve(jac, np.zeros(3))


def test_linear_solve_rhs_validation():
    grid = build_grid(GridMap("alg", 1.0), 3)
    jac = assemble_jacobian(toy_linear_problem(), grid, np.zeros((4, 1)), "analytic")
    with pytest.raises(ValueError):
        linear_solve(jac, np.zeros(5))
