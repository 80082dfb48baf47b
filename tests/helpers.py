"""Whole-run and one-plant forms of the library's streaming and lockstep
APIs, which only tests call: the path of the bundled scenario, the RK4 run
of one system, as blocks and joined, a network's nonzeros with a local
generator per follower, each follower's streams in a network block, the
network run joined into one trajectory, its tracking-error norms and their
metrics, the closed augmented loop of one follower with its states and with
its cost, the Lyapunov solve of one equation, policy iteration on one
plant, and the policy-evaluation, policy-improvement and Riccati-residual
formulas of one plant."""

import dataclasses
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from syncopt import policy_iteration, protocol, simulator
from syncopt.errors import NumericalError
from syncopt.numkernel import solve_lyapunov

BUNDLED_SCENARIO = Path(resources.files("syncopt") / "scenarios" / "paper_six_agents.json")
FollowerStream = namedtuple("FollowerStream", "x xi zeta u e")  # T x n, q, q, m, p


def rk4_blocks(M, y0: np.ndarray, t_end: float, dt: float):
    """Classical fixed-step RK4 for dy = M y, yielded as consecutive blocks
    of samples: `simulator._rk4_lockstep` on a stack of one system. M is the
    n x n matrix; from n = 363 on it may instead be given as its nonzeros
    (rows, cols, vals), sorted row-major."""
    systems = M[None] if isinstance(M, np.ndarray) else [M]
    for _, _, block in simulator._rk4_lockstep(systems, np.asarray(y0, dtype=float)[None],
                                               t_end, dt):
        yield block[0]


def rk4(M, y0: np.ndarray, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 for dy = M y; returns (times, samples), the
    blocks of `rk4_blocks` joined."""
    blocks = list(rk4_blocks(M, y0, t_end, dt))
    return (np.arange(simulator._steps(t_end, dt) + 1) * dt,
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks))


def network_run(scenario, gains: dict, t_end: float, dt: float) -> simulator.NetworkRun:
    """The scenario's `NetworkRun` under the given gain sets and over the
    horizon t_end of step dt, with the compensator design of the scenario's
    leader, topology and r."""
    design = protocol.design_compensator(scenario.leader, scenario.topology, scenario.r)
    return simulator.NetworkRun(dataclasses.replace(scenario, t_end=t_end, dt=dt), design, gains)


def with_local_generator_copies(matrix, y0: np.ndarray, q: int, orders) -> tuple:
    """The nonzeros (rows, cols, vals) and the initial state of a network in
    the layout with a local generator per follower, [leader | compensators |
    N local generators | followers], rebuilt from those of `NetworkRun`'s
    layout with one by duplicating zeta: its rows and its initial state go
    to each of the N copies, and each follower's -B K3 block reads its own.
    `orders` are the followers' orders n_i. Each row keeps its terms in
    their order, so the nonzeros stay row-major."""
    rows, cols, vals = matrix
    N = len(orders)
    z, shift = q + q * N, q * (N - 1)  # the one zeta's first column; what the followers move by
    owner = np.repeat(np.arange(N), orders)  # the follower of each follower row
    zeta = (z <= rows) & (rows < z + q)
    follower = rows >= z + q
    new_cols = np.where(cols >= z + q, cols + shift, cols)
    own = follower & (z <= cols) & (cols < z + q)  # a follower's -B K3 entries
    new_cols[own] += q * owner[rows[own] - z - q]
    new_rows = np.where(follower, rows + shift, rows)
    parts = [(new_rows[~zeta], new_cols[~zeta], vals[~zeta])]
    parts += [(rows[zeta] + q * i, cols[zeta] + q * i, vals[zeta]) for i in range(N)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(rows, kind="stable")
    y0 = np.concatenate([y0[:z], np.tile(y0[z : z + q], N), y0[z + q :]])
    return (rows[order], cols[order], vals[order]), y0


def followers(block: simulator.Trajectory) -> dict:
    """name -> FollowerStream of one block of a network run, views of its
    groups' streams."""
    return {name: FollowerStream(*(stream[j] for stream in streams))
            for names, *streams in block.groups for j, name in enumerate(names)}


@dataclass(frozen=True)
class NetworkTrajectory:
    times: np.ndarray
    leader_states: np.ndarray  # T x q
    followers: dict  # name -> FollowerStream over the whole run


def simulate_network(scenario, gains: dict, t_end: float, dt: float) -> NetworkTrajectory:
    """Integrate the whole closed-loop network under the given gain sets:
    the blocks of its `NetworkRun`, joined into one `NetworkTrajectory`."""
    run = network_run(scenario, gains, t_end, dt)
    times, w, streams = [], [], {name: [] for name in run.tracking.names}
    for block in run:
        times.append(block.times)
        w.append(block.leader_states)
        for name, stream in followers(block).items():
            streams[name].append(stream)
    return NetworkTrajectory(
        times=np.concatenate(times), leader_states=np.concatenate(w),
        followers={name: FollowerStream(*map(np.concatenate, zip(*parts)))
                   for name, parts in streams.items()},
    )


def error_norms(traj: NetworkTrajectory) -> np.ndarray:
    """|e| of each follower of a whole trajectory at each sample, T x N, the
    followers in the trajectory's order."""
    return np.stack([np.linalg.norm(stream.e, axis=1) for stream in traj.followers.values()], axis=1)


def tracking_metrics(traj: NetworkTrajectory) -> dict:
    """Per-follower tail error and settle time of the tracking error of a
    whole trajectory: its `TrackingSummary` given every sample's norms at
    once. Sample k is at times[k] = k * dt, so dt is times[1]."""
    times = traj.times
    summary = simulator.TrackingSummary(len(times) - 1, times[1] if len(times) > 1 else 1.0,
                                        traj.followers)
    summary.add(error_norms(traj))
    return summary.metrics()


@dataclass(frozen=True)
class AugmentedTrajectory:
    times: np.ndarray
    X: np.ndarray  # T x (q+n)
    e: np.ndarray  # T x p
    abscissa: float  # max real part of the spectrum of A - B K


def simulate_augmented(plant, K, X0, t_end: float, dt: float) -> AugmentedTrajectory:
    """The closed augmented error system dX = (A - B K) X of one follower,
    integrated whole, with its states and tracking errors."""
    K = np.asarray(K, dtype=float)
    Acl = plant.A - plant.B @ K
    abscissa = float(np.linalg.eigvals(Acl).real.max())
    if not abscissa < 0:
        raise NumericalError("gain is not stabilizing; refusing the augmented run")
    times, X = rk4(Acl, np.asarray(X0, dtype=float), t_end, dt)
    return AugmentedTrajectory(times=times, X=X, e=X @ (plant.C - plant.D @ K).T,
                               abscissa=abscissa)


def augmented_cost(plant, K, X0, t_end: float, dt: float) -> simulator.CostReport:
    """The cost report of one follower's closed augmented loop, by
    `simulator.simulate_augmented` on a batch of one."""
    return simulator.simulate_augmented([plant], [K], [X0], t_end, dt)[0]


def lyapunov(Abar, Q) -> tuple:
    """P, residual and spectral abscissa of one Lyapunov equation
    Abar^T P + P Abar + Q = 0: `numkernel.solve_lyapunov` on a stack of one."""
    return tuple(x[0] for x in solve_lyapunov(np.asarray(Abar, dtype=float)[None],
                                              np.asarray(Q, dtype=float)[None]))


def policy_evaluation(plant, K) -> tuple:
    """Cost matrix of the fixed gain K on one plant, its Lyapunov residual and
    the spectral abscissa of A - B K: `policy_iteration.policy_evaluation` on
    a stack of one."""
    stack = (np.array([M], dtype=float) for M in (plant.A, plant.B, plant.C, plant.D, K))
    return tuple(x[0] for x in policy_iteration.policy_evaluation(*stack))


def run_pi(plant, K0, epsilon=policy_iteration.DEFAULT_EPSILON,
           max_iter=policy_iteration.DEFAULT_MAX_ITER) -> policy_iteration.PiTrace:
    """Policy iteration on one plant: `policy_iteration.run_pi_group` on a group of one."""
    return policy_iteration.run_pi_group([plant], [K0], epsilon, max_iter)[0]


def policy_improvement(plant, P) -> np.ndarray:
    """Greedy gain for the cost matrix P: K = (D^T D)^{-1} (D^T C + B^T P)."""
    P = np.asarray(P, dtype=float)
    return np.linalg.solve(policy_iteration._gram(plant), plant.D.T @ plant.C + plant.B.T @ P)


def are_residual(plant, P) -> float:
    """Frobenius norm of the cross-term Riccati residual at P."""
    return policy_iteration._are_residual(plant, policy_iteration._gram(plant),
                                          np.asarray(P, dtype=float))
