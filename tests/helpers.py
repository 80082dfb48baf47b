"""Whole-run and one-plant forms of the library's streaming and lockstep
APIs, which only tests call: an RK4 run and the network run joined into
one trajectory, its tracking-error norms and their metrics, the closed
augmented loop of one follower with its states and with its cost, and the
policy-improvement and Riccati-residual formulas of one plant."""

from dataclasses import dataclass

import numpy as np

from syncopt import policy_iteration, protocol, simulator
from syncopt.errors import NumericalError
from syncopt.numkernel import spectrum


def rk4(M, y0: np.ndarray, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 for dy = M y; returns (times, samples), the
    blocks of `simulator._rk4_blocks` joined."""
    blocks = list(simulator._rk4_blocks(M, y0, t_end, dt))
    return (np.arange(simulator._steps(t_end, dt) + 1) * dt,
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks))


def network_run(scenario, gains: dict, t_end: float, dt: float) -> simulator.NetworkRun:
    """The scenario's `NetworkRun` under the given gain sets, with the
    compensator design of the scenario's leader, topology and r."""
    design = protocol.design_compensator(scenario.leader, scenario.topology, scenario.r)
    return simulator.NetworkRun(scenario, design, gains, t_end, dt)


def simulate_network(scenario, gains: dict, t_end: float, dt: float) -> simulator.Trajectory:
    """Integrate the whole closed-loop network under the given gain sets:
    the blocks of its `NetworkRun`, joined into one `Trajectory`."""
    run = network_run(scenario, gains, t_end, dt)
    times, w, streams = [], [], {name: [] for name in run.tracking.names}
    for block in run:
        times.append(block.times)
        w.append(block.leader_states)
        for name, s in block.followers.items():
            streams[name].append((s.x, s.xi, s.zeta, s.u, s.e))
    return simulator.Trajectory(
        times=np.concatenate(times), leader_states=np.concatenate(w),
        followers={name: simulator.FollowerStream(*map(np.concatenate, zip(*parts)))
                   for name, parts in streams.items()},
    )


def error_norms(traj: simulator.Trajectory) -> np.ndarray:
    """|e| of each follower of a whole trajectory at each sample, T x N, the
    followers in the trajectory's order."""
    return np.stack([np.linalg.norm(stream.e, axis=1) for stream in traj.followers.values()], axis=1)


def tracking_metrics(traj: simulator.Trajectory) -> dict:
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
    abscissa = spectrum(Acl).max_real
    if not abscissa < 0:
        raise NumericalError("gain is not stabilizing; refusing the augmented run")
    times, X = rk4(Acl, np.asarray(X0, dtype=float), t_end, dt)
    return AugmentedTrajectory(times=times, X=X, e=X @ (plant.C - plant.D @ K).T,
                               abscissa=abscissa)


def augmented_cost(plant, K, X0, t_end: float, dt: float) -> simulator.CostReport:
    """The cost report of one follower's closed augmented loop, by
    `simulator.simulate_augmented` on a batch of one; its error is raised."""
    (cost,) = simulator.simulate_augmented([plant], [K], [X0], t_end, dt)
    if isinstance(cost, Exception):
        raise cost
    return cost


def policy_improvement(plant, P) -> np.ndarray:
    """Greedy gain for the cost matrix P: K = (D^T D)^{-1} (D^T C + B^T P)."""
    P = np.asarray(P, dtype=float)
    return np.linalg.solve(policy_iteration._gram(plant), plant.D.T @ plant.C + plant.B.T @ P)


def are_residual(plant, P) -> float:
    """Frobenius norm of the cross-term Riccati residual at P."""
    return policy_iteration._are_residual(plant, policy_iteration._gram(plant),
                                          np.asarray(P, dtype=float))
