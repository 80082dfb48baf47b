"""Fixed-step closed-loop simulation of the full leader-follower network and
of the per-agent augmented error systems, plus tracking and cost metrics.

The network (leader, compensators, local generators, followers under the
distributed protocol) is one large LTI system; it is assembled once, from
the agents and the edge list, as the nonzeros of its block matrix and
integrated with classical 4th-order Runge-Kutta (see `_rk4_blocks`). A
system of fewer than 363 states is made dense and advanced by its
precomputed one-step map, several steps per matrix product. From 363 states
on, one dense step map alone fills the 2 MB chunk budget, so a chunk holds a
single step and there is nothing to amortise; such a system, in practice a
large and almost entirely zero network matrix, runs the four RK4 stages on
the matrix's nonzeros instead.

The samples come out in row blocks of about 1 MB (at least 256 rows), so a
run need never be held whole: a `NetworkRun` yields each block as a
`Trajectory` of its own rows, with the followers' inputs and tracking errors
(memoryless functions of the state) computed for those rows, and keeps only
the per-sample norms of the tracking errors, 8 bytes per follower and
sample. The closed augmented loops of followers of one shape are integrated
in lockstep (`simulate_augmented`), and each keeps only what its cost needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .numkernel import abscissae, lockstep

BLOWUP_LIMIT = 1e12
SETTLE_THRESHOLD = 1e-2

# Chunked RK4 propagation: byte budget of the stack of step-map powers, and
# the longest chunk.
_CHUNK_BYTES = 2 << 20
_MAX_CHUNK = 128
# Row blocks of a run: about this many bytes of samples each, but at least
# this many rows, so that the fixed work of a network block (a dozen numpy
# calls per group of followers, a few views per follower) is spread over
# enough samples.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 256
# Bytes of the power stacks and kept |e|^2 of the augmented runs that one
# `simulate_augmented` call should take (see `augmented_batch`).
_GROUP_BYTES = 2 << 20


@dataclass(frozen=True)
class FollowerStream:
    x: np.ndarray  # T x n
    xi: np.ndarray  # T x q
    zeta: np.ndarray  # T x q
    u: np.ndarray  # T x m
    e: np.ndarray  # T x p


@dataclass(frozen=True)
class ErrorNorms:
    times: np.ndarray  # T
    names: tuple  # followers, scenario order
    values: np.ndarray  # T x N, |e| of each follower at each sample


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # the uniform grid 0..t_end, or a block of consecutive samples of it
    leader_states: np.ndarray  # T x q
    followers: dict  # name -> FollowerStream


@dataclass(frozen=True)
class AugmentedRun:
    times: np.ndarray
    X0: np.ndarray  # the initial state
    e2: np.ndarray  # T, |e|^2 at each sample, e = (C - D K) X
    abscissa: float  # max real part of the spectrum of A - B K, for horizon checks


@dataclass(frozen=True)
class CostReport:
    j_quadrature: float  # trapezoid of |e|^2 over the horizon
    j_closed_form: float  # X0^T P X0
    tail_error: float  # max |e| over the last 10% of the horizon
    horizon_warning: str | None = None


@dataclass(frozen=True)
class TrackingMetrics:
    tail_error: float
    settle_time: float | None  # None when the error never settles below 1e-2


def _chunk_length(n: int) -> int:
    """Longest stack R^1..R^B of n x n step-map powers one chunk may use."""
    return max(1, min(_MAX_CHUNK, _CHUNK_BYTES // (8 * n * n)))


def _block_rows(width: int, chunk: int) -> int:
    """Samples per row block of a run of `width` states in all (n for one
    system, G n for G systems of order n in lockstep): whole chunks of
    `chunk` steps, so that every sample is the same float whatever the
    blocks."""
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * width))
    return -(-rows // chunk) * chunk


def _step_map(M: np.ndarray, h: float, out: np.ndarray) -> None:
    """Write the RK4 step map R = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24
    of M, or of each of a stack, into `out`, by Horner."""
    diag = np.arange(M.shape[-1])
    p = np.eye(M.shape[-1])
    for d in (4.0, 3.0, 2.0, 1.0):
        p = M @ p
        p *= h / d
        p[..., diag, diag] += 1.0
    out[...] = p


def _time_grid(t_end: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    return np.arange(int(np.floor(t_end / dt + 1e-9)) + 1) * dt


def _rk4(M, y0: np.ndarray, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 for dy = M y; returns (times, samples), the
    blocks of `_rk4_blocks` joined."""
    blocks = list(_rk4_blocks(M, y0, t_end, dt))
    return _time_grid(t_end, dt), blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _rk4_blocks(M, y0: np.ndarray, t_end: float, dt: float):
    """Classical fixed-step RK4 for dy = M y, yielded as consecutive blocks
    of samples: y0 and the first `_block_rows` steps, then that many steps
    a block. Each block is a new array. M is the n x n matrix; from n = 363
    on it may instead be given as its nonzeros (rows, cols, vals), sorted
    row-major. A non-finite start, or a sample that is non-finite or beyond
    BLOWUP_LIMIT, raises before the block that holds it is yielded. This is
    the one-system call of `_rk4_lockstep`."""
    systems = M[None] if isinstance(M, np.ndarray) else [M]
    for _, _, block in _rk4_lockstep(systems, np.asarray(y0, dtype=float)[None], t_end, dt):
        yield block[0]


def _rk4_lockstep(M, Y0: np.ndarray, t_end: float, dt: float):
    """Classical fixed-step RK4 for G systems dy = M_g y of one order n, in
    lockstep, yielded as blocks of samples (members, first, block): block[j]
    holds the samples of system members[j] from sample `first` on. The
    systems of one chunk length (below) run together, y0 and the first
    `_block_rows` steps, then that many steps a block; each block is a new
    array.

    M is the (G, n, n) stack of the matrices; from n = 363 on it may instead
    be the list of their nonzeros (rows, cols, vals), sorted row-major.

    For a linear system one RK4 step is exactly y <- R y with R the RK4
    stability polynomial of dt M (Hairer, Norsett & Wanner, Solving ODEs I).
    While a chunk can stack at least two powers of R (n < 363 states), R is
    built once and the samples are emitted in chunks,
    out[k+1 : k+1+b] = (R^1 .. R^b) out[k], with blocks of whole chunks;
    numpy makes each system's own BLAS call for the stacked products, so
    every sample has the bits of a run of its system alone. Powers are
    stacked only while their entries stay below BLOWUP_LIMIT, so a zero
    state stays exactly zero under an unstable M instead of becoming
    inf * 0; the chunk length b is each system's own. From n = 363 on a
    chunk holds one step, so the dense R would cost n^3 flops to build and
    n^2 reads per step for nothing; there the four stages run on the
    nonzeros of M (see `_rk4_stages`), one system at a time.

    A start that is non-finite, or a sample that is non-finite or beyond
    BLOWUP_LIMIT, fails the stack: the run raises the error of the first
    such system, before the block that holds that sample is yielded.
    """
    times = _time_grid(t_end, dt)
    steps = len(times) - 1
    Y0 = np.asarray(Y0, dtype=float)
    G, n = Y0.shape
    if not np.isfinite(Y0).all():
        raise NumericalError("non-finite initial state")

    def blocks(members, chunk, advance):
        per_block = _block_rows(len(members) * n, chunk)
        block = np.empty((len(members), 1 + min(per_block, steps), n))
        block[:, 0] = Y0[members]
        advance(block[:, 0], block, 1, 0)
        yield members, 0, block
        for k in range(block.shape[1] - 1, steps, per_block):
            y = block[:, -1].copy()  # not a view, which would keep the block alive
            block = np.empty((len(members), min(per_block, steps - k), n))
            advance(y, block, 0, k)
            yield members, k + 1, block

    if _chunk_length(n) == 1:
        if isinstance(M, np.ndarray):
            M = [(*np.nonzero(m), m[np.nonzero(m)]) for m in M]

        def stages(y, block, r0, k):  # rows r0.. of the block from y, at step k
            for g in range(G):
                _rk4_stages(*M[g], y[g], block[g, r0:], times[k + 1 :], dt)

        yield from blocks(np.arange(G), 1, stages)
        return

    def guard(block, r0, k):
        """Raise at the first system with a sample from row r0 on (step k + 1
        on) that is non-finite or beyond BLOWUP_LIMIT."""
        rows = block[:, r0:]
        top = np.maximum(rows.max(axis=(1, 2), initial=0.0), -rows.min(axis=(1, 2), initial=0.0))
        failed = np.flatnonzero(~(top <= BLOWUP_LIMIT))
        if len(failed):
            first = int(np.argmax(~(np.abs(rows[failed[0]]) <= BLOWUP_LIMIT).all(axis=1)))
            raise NumericalError(f"state blow-up at t = {times[k + 1 + first]:.6g}")

    powers, chunks = _power_stack(M, dt, steps)
    for chunk in sorted(set(chunks.tolist()), reverse=True):
        members = np.flatnonzero(chunks == chunk)
        every = slice(None) if len(members) == G else members
        flat = powers[every, :chunk].reshape(len(members), chunk * n, n)

        def products(y, block, r0, k, chunk=chunk, flat=flat):
            out = block.reshape(len(block), -1)  # a view: the block is contiguous
            with np.errstate(all="ignore"):  # a system that blows up runs on to the block's end
                for i in range(r0, block.shape[1], chunk):
                    rows = block[:, i : i + chunk]
                    np.matmul(flat[:, : rows.shape[1] * n], y[:, :, None],
                              out=out[:, i * n : i * n + rows[0].size, None])
                    y = rows[:, -1]
            guard(block, r0, k)

        yield from blocks(members, chunk, products)


def _power_stack(M: np.ndarray, dt: float, steps: int) -> tuple:
    """The RK4 step map R of each of a stack of G matrices and its powers,
    R^1 .. R^B in a (G, B, n, n) stack, B the longest chunk `_chunk_length`
    allows (and no longer than the run), and each system's chunk length b:
    the powers up to the last one whose entries stay below BLOWUP_LIMIT.
    The powers past b are not used."""
    G, n = M.shape[:2]
    powers = np.empty((G, min(_chunk_length(n), max(steps, 1)), n, n))
    with np.errstate(all="ignore"):
        _step_map(M, dt, out=powers[:, 0])
        for c in range(1, powers.shape[1]):
            np.matmul(powers[:, 0], powers[:, c - 1], out=powers[:, c])
        rest = powers[:, 1:]
        below = np.maximum(rest.max(axis=(2, 3)), -rest.min(axis=(2, 3))) <= BLOWUP_LIMIT
    chunks = 1 + np.cumprod(below, axis=1).sum(axis=1)  # 1 + the leading powers below
    return powers, chunks


def _rk4_stages(rows, cols, vals, y, out, times, dt) -> None:
    """Textbook four-stage RK4 for dy = M y, with M given by its nonzeros
    M[rows, cols] = vals: from y, fill `out` with the samples at `times`;
    the guard checks every step."""
    n = len(y)

    def f(y):
        return np.bincount(rows, weights=vals * y[cols], minlength=n)

    for k in range(len(out)):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        out[k] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(out[k]).max() <= BLOWUP_LIMIT:
            raise NumericalError(f"state blow-up at t = {times[k]:.6g}")
        y = out[k]


class NetworkRun:
    """The whole closed-loop network under the given gain sets, assembled
    and ready to integrate.

    `scenario` provides leader, agents, topology and initial conditions;
    `design` is the scenario's `protocol.CompensatorDesign`, and `gains`
    maps agent name -> GainSet. The compensator state of the leader node is
    the leader state itself.

    Each iteration integrates the network from its initial state and yields
    the run as consecutive row blocks (see `_rk4_blocks`), each a
    `Trajectory` over the samples of that block. As a block passes, the
    norms of its followers' tracking errors are written into `error_norms`,
    which covers the whole run once an iteration has ended.
    """

    def __init__(self, scenario, design, gains: dict, t_end: float, dt: float):
        leader = scenario.leader
        agents = list(scenario.agents)
        topo = scenario.topology
        q = leader.q
        N = topo.n_followers
        if len(agents) != N:
            raise ValueError(f"{len(agents)} agents for {N} followers")

        names = [name for name, _ in agents]
        for name in names:
            if name not in gains:
                raise ValueError(f"no gain set for agent {name}")

        n_list = [ag.n for _, ag in agents]
        xi_off = q + q * np.arange(N)
        z_off = q + N * q + q * np.arange(N)
        x_off = 2 * q * N + q + np.cumsum([0] + n_list[:-1])
        dim = q + 2 * N * q + sum(n_list)

        y0 = np.zeros(dim)
        y0[:q] = leader.w0
        for i, (name, ag) in enumerate(agents):
            y0[xi_off[i] : xi_off[i] + q] = scenario.xi0[name]
            y0[z_off[i] : z_off[i] + q] = scenario.zeta0
            y0[x_off[i] : x_off[i] + ag.n] = scenario.x0[name]

        matrix = _network_matrix(scenario, gains, design, xi_off, z_off, x_off)
        if _chunk_length(dim) > 1:  # made dense for the step map
            rows, cols, vals = matrix
            matrix = np.zeros((dim, dim))
            matrix[rows, cols] = vals

        times = _time_grid(t_end, dt)
        self.error_norms = ErrorNorms(times, tuple(names), np.empty((len(times), N)))
        # Followers of one shape (n, m, p) that follow each other lie at even
        # strides in every part of the state, so the outputs of each such
        # group are computed by stacked products, per group and not per
        # follower. numpy makes one BLAS call per follower for a stacked
        # product, the call that follower's own product would make, so the
        # values are the same bits.
        self._q = q
        self._groups = []
        shapes = [(ag.n, ag.m, ag.p) for _, ag in agents]
        starts = [i for i in range(N) if i == 0 or shapes[i] != shapes[i - 1]]
        for start, stop in zip(starts, starts[1:] + [N]):
            ags = [ag for _, ag in agents[start:stop]]
            gs = [gains[name] for name in names[start:stop]]
            self._groups.append((
                names[start:stop], start, shapes[start][0],
                (x_off[start], xi_off[start], z_off[start]),
                *(np.stack(mats).transpose(0, 2, 1) for mats in (  # each matrix transposed
                    [g.K1 for g in gs], [g.K2 for g in gs], [g.K3 for g in gs],
                    [ag.C for ag in ags], [ag.D for ag in ags], [ag.F for ag in ags],
                )),
            ))
        self._integration = matrix, y0, t_end, dt

    def __iter__(self):
        times = self.error_norms.times
        q = self._q
        k = 0
        for samples in _rk4_blocks(*self._integration):
            b = len(samples)
            w = samples[:, :q]
            followers = {}
            for names, first, n, (x0, xi0, z0), K1, K2, K3, C, D, F in self._groups:
                G = len(names)

                def stacked(col, width):  # G x b x width, follower-major views
                    return samples[:, col : col + G * width].reshape(b, G, width).transpose(1, 0, 2)

                x, xi, zeta = stacked(x0, n), stacked(xi0, q), stacked(z0, q)
                u = -(x @ K1 + xi @ K2 + zeta @ K3)
                e = x @ C + u @ D - w @ F
                self.error_norms.values[k : k + b, first : first + G] = np.linalg.norm(e, axis=2).T
                for j, name in enumerate(names):
                    followers[name] = FollowerStream(x=x[j], xi=xi[j], zeta=zeta[j], u=u[j], e=e[j])
            k += b
            yield Trajectory(times=times[k - b : k], leader_states=w, followers=followers)


def _network_matrix(scenario, gains, design, xi_off, z_off, x_off) -> tuple:
    """Nonzeros (rows, cols, vals) of the block system matrix of the
    closed-loop network in the state layout
    [leader | compensators | local generators | followers], row-major as
    `np.nonzero` lists them. The matrix is built one strip of rows at a
    time, in row order, from the agents and the edge list, so the assembly
    is linear in the number of agents and edges and needs no sort. Each
    nonzero is the same float, in the same order, as in the dense matrix,
    so the trajectories are unchanged."""
    leader = scenario.leader
    topo = scenario.topology
    q = leader.q
    eye = np.eye(q)
    strips = [_row_strip(0, [(0, leader.S)])]
    for i, a in enumerate(design.alphas):
        own = (xi_off[i], leader.S + a * topo.in_degrees[i + 1] * eye)
        coupled = [(0 if j == 0 else xi_off[j - 1], -a * eye)  # leader or compensator j
                   for j in topo.senders[i + 1]]
        strips.append(_row_strip(xi_off[i], sorted(coupled + [own], key=lambda b: b[0])))
    strips += [_row_strip(z, [(z, design.s_shifted)]) for z in z_off]
    for i, (name, ag) in enumerate(scenario.agents):
        g = gains[name]
        strips.append(_row_strip(x_off[i], [
            (0, ag.E), (xi_off[i], -ag.B @ g.K2), (z_off[i], -ag.B @ g.K3),
            (x_off[i], ag.A - ag.B @ g.K1),
        ]))
    return tuple(np.concatenate(part) for part in zip(*strips))


def _row_strip(r0, blocks) -> tuple:
    """Nonzeros (rows, cols, vals), row-major, of the rows from r0 on that
    hold the dense `blocks`, (first column, block) pairs in column order."""
    strip = np.hstack([block for _, block in blocks])
    col = np.concatenate([c0 + np.arange(block.shape[1]) for c0, block in blocks])
    r, c = np.nonzero(strip)
    return r + r0, col[c], strip[r, c]


def augmented_batch(order: int, t_end: float, dt: float) -> int:
    """How many augmented runs of `order` states over the grid 0..t_end one
    `simulate_augmented` call should take: as many as keep their power
    stacks and the |e|^2 they keep within _GROUP_BYTES."""
    samples = len(_time_grid(t_end, dt))
    return max(1, _GROUP_BYTES // (8 * (_chunk_length(order) * order * order + samples)))


def simulate_augmented(plants, Ks, X0s, t_end: float, dt: float) -> list:
    """Integrate the closed augmented error systems dX = (A - B K) X of the
    plants of one shape under the gains Ks, from X0s, in lockstep (see
    `numkernel.lockstep` and `_rk4_lockstep`) and a row block at a time.

    Each run keeps only what `evaluate_cost` reads: |e|^2 at every sample,
    e = (C - D K) X, its X0 and the spectral abscissa of A - B K. A gain
    that is not stabilizing is refused, and a blow-up stops the run; a
    member that fails fails the stack, and every member is then run alone.
    Returns, per member, its AugmentedRun or its error.
    """
    return lockstep(_augmented_lockstep, (list(plants), list(Ks), list(X0s)), t_end, dt)


def _augmented_lockstep(plants, Ks, X0s, t_end, dt) -> list:
    """The stacked runs of `simulate_augmented`, which raise at the first
    check any member fails."""
    K = np.array(Ks, dtype=float)
    A, B, C, D = (np.array([getattr(p, f) for p in plants]) for f in "ABCD")
    Acl = A - B @ K
    if not np.isfinite(Acl).all():
        raise ValueError("A has non-finite entries")
    abscissa = abscissae(Acl).tolist()
    if not all(a < 0 for a in abscissa):
        raise NumericalError("gain is not stabilizing; refusing the augmented run")

    times = _time_grid(t_end, dt)
    X0 = np.array(X0s, dtype=float)
    Cbar = C - D @ K
    e2 = np.empty((len(plants), len(times)))
    for members, first, block in _rk4_lockstep(Acl, X0, t_end, dt):
        rows = block.shape[1]
        # a one-row product takes another BLAS path than the rows of a taller
        # one, so a lone last row goes with the row before it
        X = block if rows > 1 or first == 0 else np.concatenate([before, block], axis=1)
        sq = (X @ Cbar[members].mT)[:, -rows:] ** 2
        # numpy sums fewer than 8 terms left to right, so adding the columns
        # in turn gives the floats of np.sum(sq, axis=2), and fast
        e2[members, first : first + rows] = (sum(np.moveaxis(sq, 2, 0)) if sq.shape[2] < 8
                                             else np.sum(sq, axis=2))
        before = block[:, -1:]
    return [AugmentedRun(times, x0, e, a) for x0, e, a in zip(X0, e2, abscissa)]


def evaluate_cost(run: AugmentedRun, P) -> CostReport:
    """Cost of an augmented run both by quadrature and by the closed form
    X0^T P X0 (the P must evaluate the same gain that produced the run)."""
    P = np.asarray(P, dtype=float)
    j_quad = float(np.trapezoid(run.e2, run.times))
    j_closed = float(run.X0 @ P @ run.X0)
    tail = float(np.sqrt(run.e2[_tail_start(len(run.e2)) :]).max())

    warning = None
    slowest = run.abscissa
    t_end = run.times[-1]
    if slowest < 0 and t_end < 5.0 / abs(slowest):
        warning = (
            f"horizon {t_end:.3g}s is shorter than 5 time constants of the "
            f"slowest mode ({1.0 / abs(slowest):.3g}s); quadrature may be truncated"
        )
    return CostReport(
        j_quadrature=j_quad, j_closed_form=j_closed, tail_error=tail, horizon_warning=warning
    )


def tracking_metrics(norms: ErrorNorms) -> dict:
    """Per-follower tail error and settle time of the tracking error, from
    its per-sample norms."""
    out = {}
    for name, mag in zip(norms.names, norms.values.T):
        above = np.nonzero(mag >= SETTLE_THRESHOLD)[0]
        if above.size == 0:
            settle = 0.0
        elif above[-1] == len(mag) - 1:
            settle = None  # not settled within the horizon
        else:
            settle = float(norms.times[above[-1] + 1])
        tail = float(mag[_tail_start(len(mag)) :].max())
        out[name] = TrackingMetrics(tail_error=tail, settle_time=settle)
    return out


def _tail_start(samples: int) -> int:
    """First sample of the last 10% of the horizon."""
    return int(np.ceil(0.9 * (samples - 1)))
