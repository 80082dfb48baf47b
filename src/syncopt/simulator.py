"""Fixed-step closed-loop simulation of the full leader-follower network and
of the per-agent augmented error systems, plus tracking and cost metrics.

The network (leader, compensators, local generators, followers under the
distributed protocol) is one large LTI system; it is assembled once, from
the agents and the edge list, as the nonzeros of its block matrix and
integrated with classical 4th-order Runge-Kutta (see `_rk4_lockstep`). One
RK4 step of a linear system is exactly y <- R y with R the step map, the
RK4 stability polynomial of the step times the matrix. The integrator
alone decides how a run is cut. A system of fewer than 363 states is made
dense and advanced by R, several steps per matrix product, in batches of
systems whose powers of R fit the 2 MB chunk budget. From 363 states on,
one dense step map alone fills that budget, so a chunk holds a single step
and there is nothing to amortise; such a system, in practice a large and
almost entirely zero network matrix, is advanced by the nonzeros of R
instead, built from those of the matrix, or by the four RK4 stages on the
matrix's nonzeros where R fills in.

The samples come out in row blocks of about 1 MB (at least 256 rows, and
never a lone last row), one
alive at a time, so a run need never be held whole: a `NetworkRun` yields
each block as a `Trajectory` of its own rows, with the followers' inputs,
tracking errors and their norms computed for those rows a group of
followers at a time, and keeps only what the tracking metrics read, two
numbers per follower. A run that is
asked only for its tail errors (`NetworkRun.tail_errors`, what `compare`
reads) forms no more of itself than the last 10% of the horizon needs: on
the dense path it passes the whole chunks before the tail by the top power
of R alone, and it computes the followers' outputs from the tail on. The
closed augmented loops of followers of one shape have their Lyapunov
equations solved, then are integrated, in lockstep (`simulate_augmented`);
each run keeps only a running sum of |e|^2 and its largest value over the
last 10% of the horizon. No run holds a grid of its times: sample k is at
time k * dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHurwitzError, NumericalError
from .numkernel import solve_lyapunov

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
# Rows of the sparse step map built at a time (see `_sparse_step_map`).
_STRIP_ROWS = 256


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # of consecutive samples, k * dt for sample k
    leader_states: np.ndarray  # T x q
    groups: list  # (names, x, xi, zeta, u, e) per run of followers of one shape, each stream G x T x width
    norms: np.ndarray  # T x N: |e| of each follower, the followers in order


@dataclass(frozen=True)
class CostReport:
    j_quadrature: float  # trapezoid of |e|^2 over the horizon
    j_closed_form: float  # X0^T P X0
    tail_error: float  # max |e| over the last 10% of the horizon
    horizon_warning: str | None


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


def _steps(t_end: float, dt: float) -> int:
    """RK4 steps of a run over 0..t_end; sample k is at time k * dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    return int(np.floor(t_end / dt + 1e-9))


def _rk4_lockstep(M, Y0: np.ndarray, t_end: float, dt: float, start: int = 0):
    """Classical fixed-step RK4 for G systems dy = M_g y of one order n, in
    lockstep, yielded as blocks of samples (members, first, block): block[j]
    holds the samples of system members[j] from sample `first` on. The
    systems of one batch and one chunk length (below) run together, y0 and
    the first `_block_rows` steps, then that many steps a block; each block
    is a new array. Over a block of one row, the products its reader takes
    (the followers' outputs, |e|^2) would be matrix-vector calls, whose
    floats differ from those of the matrix-matrix calls over taller blocks;
    so a lone last row joins the block before it, formed by the same
    products, and every sample reads the same whatever the horizon. Only a
    run of no steps yields a block of one row.

    A run that is read only from sample `start` on may begin its blocks
    later: on the step-map path, the whole chunks before the one that holds
    sample start - 1 are passed over by R^b alone while no sample in them
    can fail the checks below, and the first block
    yielded is the rest of the block from the first chunk formed. The
    blocks end where those of a whole run end, every sample they hold is
    the same float, and a run that fails raises the same error. On the
    other paths every block is formed and yielded.

    M is the (G, n, n) stack of the matrices or the list of their nonzeros
    (rows, cols, vals), sorted row-major; the integrator makes the form its
    path needs.

    For a linear system one RK4 step is exactly y <- R y with R the RK4
    stability polynomial of dt M (Hairer, Norsett & Wanner, Solving ODEs I).
    While a chunk can stack at least two powers of R (n < 363 states), R is
    built once, for a batch of as many systems as keep their power stacks
    within _CHUNK_BYTES, and the samples are emitted in chunks,
    out[k+1 : k+b] = (R^1 .. R^(b-1)) out[k] and out[k+b] = R^b out[k],
    with blocks of whole chunks; the last sample of a whole chunk comes from
    R^b alone, so a chunk passed over by R^b ends on the same float as one
    that is formed. numpy makes each system's own BLAS call for the stacked
    products, so every sample has the bits of a run of its system alone.
    Powers are stacked only while their entries stay below BLOWUP_LIMIT, so
    a zero state stays exactly zero under an unstable M instead of becoming
    inf * 0; the chunk length b is each system's own. From n = 363 on a
    chunk holds one step, so the dense R would cost n^3 flops to build and
    n^2 reads per step for nothing; there each system is advanced by the
    nonzeros of R, built from those of M a strip of rows at a time (see
    `_sparse_step_map`), one gather, one product and one row sum per step.
    Where R would hold more nonzeros than the four stages read and write
    per step, 4 nnz(M) + 4 n, or one that is not finite, the textbook four
    stages run on the nonzeros of M instead (see `_rk4_stages`).

    A start that is non-finite, or a sample that is non-finite or beyond
    BLOWUP_LIMIT, fails the stack: the run raises the error of the first
    such system of the batch and chunk length being run, before the block
    that holds that sample is yielded. The
    samples are checked a block at a time: a system that blows up runs on
    to the block's end.
    """
    steps = _steps(t_end, dt)
    Y0 = np.asarray(Y0, dtype=float)
    G, n = Y0.shape
    if not np.isfinite(Y0).all():
        raise NumericalError("non-finite initial state")

    def blocks(members, chunk, advance, passing=None):
        per_block = _block_rows(len(members) * n, chunk)
        y, k = Y0[members], 0
        if passing is not None:  # to sample k, the end of the last chunk passed over
            # sample start - 1 is formed too, so that a block that holds
            # sample `start` holds two rows or more: the followers' outputs
            # over a lone row take another BLAS path
            y, k = passing(y, max(0, start - 2) // chunk)
        head = int(k == 0)  # the first block holds y0 too
        while head or k < steps:
            end = min(steps, (k // per_block + 1) * per_block)  # at a multiple of per_block, as in a whole run
            if end == steps - 1:  # a lone last row joins the block before it
                end = steps
            block = np.empty((len(members), head + end - k, n))
            block[:, :head] = y[:, None]  # y0, in the first block
            advance(y, block, head, k)
            yield members, k + 1 - head, block
            k += block.shape[1] - head
            y, head = block[:, -1].copy(), 0  # not a view, which would keep the block alive
            del block  # the one block alive: freed before the next is allocated

    def guard(block, r0, k):
        """Raise at the first system with a sample from row r0 on (step k + 1
        on) that is non-finite or beyond BLOWUP_LIMIT."""
        rows = block[:, r0:]
        top = np.maximum(rows.max(axis=(1, 2), initial=0.0), -rows.min(axis=(1, 2), initial=0.0))
        failed = np.flatnonzero(~(top <= BLOWUP_LIMIT))
        if len(failed):
            first = int(np.argmax(~(np.abs(rows[failed[0]]) <= BLOWUP_LIMIT).all(axis=1)))
            raise NumericalError(f"state blow-up at t = {(k + 1 + first) * dt:.6g}")

    if _chunk_length(n) == 1:
        if isinstance(M, np.ndarray):
            M = [(*rc, m[rc]) for m in M for rc in [np.nonzero(m)]]
        maps = [_sparse_step_map(*m, n, dt) for m in M]

        def sparse(y, block, r0, k):  # rows r0.. of the block from y, at step k
            with np.errstate(all="ignore"):  # a system that blows up runs on to the block's end
                for g in range(G):
                    if maps[g] is None:
                        _rk4_stages(*M[g], y[g], block[g, r0:], dt)
                    else:
                        _sparse_steps(*maps[g], y[g], block[g, r0:])
            guard(block, r0, k)

        yield from blocks(np.arange(G), 1, sparse)
        return

    if not isinstance(M, np.ndarray):  # nonzeros, made dense for the step map
        dense = np.zeros((G, n, n))
        for g, (rows, cols, vals) in enumerate(M):
            dense[g, rows, cols] = vals
        M = dense
    # A sample R^j y of a chunk is formed with an error of at most
    # gamma_n |R^j| |y| entrywise (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., section 3.5; gamma_k = k u / (1 - k u)),
    # so it lies within (1 + gamma_n) n max|R^j| ||y||_inf; four more units
    # of roundoff cover the rounding of that bound and of its test.
    u = float(np.finfo(float).eps) / 2
    slack = 1 + (n + 4) * u / (1 - (n + 4) * u)

    def batch(b0, M):  # the systems from b0 on whose matrices are M, on one power stack
        powers, chunks, peaks = _power_stack(M, dt, steps)
        for chunk in sorted(set(chunks.tolist()), reverse=True):
            members = np.flatnonzero(chunks == chunk)
            every = slice(None) if len(members) == len(M) else members
            flat = powers[every, : chunk - 1].reshape(len(members), (chunk - 1) * n, n)
            top = powers[every, chunk - 1]
            reach = slack * n * float(peaks[every, :chunk].max())

            def products(y, block, r0, k, chunk=chunk, flat=flat, top=top):
                out = block.reshape(len(block), -1)  # a view: the block is contiguous
                with np.errstate(all="ignore"):  # a system that blows up runs on to the block's end
                    for i in range(r0, block.shape[1], chunk):
                        rows = block[:, i : i + chunk]
                        inner = min(rows.shape[1], chunk - 1)
                        np.matmul(flat[:, : inner * n], y[:, :, None], out=out[:, i * n : (i + inner) * n, None])
                        if rows.shape[1] == chunk:
                            np.matmul(top, y[:, :, None], out=rows[:, -1, :, None])
                        y = rows[:, -1]
                guard(block, r0, k)

            def passing(y, count, chunk=chunk, top=top, reach=reach):
                """Advance y over up to `count` whole chunks, a chunk by R^b
                alone, while `reach` ||y||_inf stays within BLOWUP_LIMIT, so
                that no sample passed over could fail the guard. Returns the
                sample reached and its step."""
                for c in range(count):
                    if not reach * float(np.abs(y).max()) <= BLOWUP_LIMIT:  # NaN and inf fail too
                        return y, c * chunk
                    y = np.matmul(top, y[:, :, None])[:, :, 0]  # the call that forms a chunk's last sample
                return y, count * chunk

            yield from blocks(b0 + members, chunk, products, passing)

    per = max(1, _CHUNK_BYTES // (8 * _chunk_length(n) * n * n))  # power stacks within the budget
    for b0 in range(0, G, per):
        yield from batch(b0, M[b0 : b0 + per])


def _power_stack(M: np.ndarray, dt: float, steps: int) -> tuple:
    """The RK4 step map R of each of a stack of G matrices and its powers,
    R^1 .. R^B in a (G, B, n, n) stack, B the longest chunk `_chunk_length`
    allows (and no longer than the run); each system's chunk length b: the
    powers up to the last one whose entries stay below BLOWUP_LIMIT; and
    the largest magnitude of the entries of each power, (G, B). The powers
    past b are not used."""
    G, n = M.shape[:2]
    powers = np.empty((G, min(_chunk_length(n), max(steps, 1)), n, n))
    with np.errstate(all="ignore"):
        _step_map(M, dt, out=powers[:, 0])
        for c in range(1, powers.shape[1]):
            np.matmul(powers[:, 0], powers[:, c - 1], out=powers[:, c])
        peaks = np.maximum(powers.max(axis=(2, 3)), -powers.min(axis=(2, 3)))
    chunks = 1 + np.cumprod(peaks[:, 1:] <= BLOWUP_LIMIT, axis=1).sum(axis=1)  # 1 + the leading powers below
    return powers, chunks, peaks


def _sparse_step_map(rows, cols, vals, n: int, h: float):
    """The nonzeros of the RK4 step map R = I + hM + (hM)^2/2 + (hM)^3/6 +
    (hM)^4/24 of the n x n matrix M[rows, cols] = vals (row-major), as
    (starts, cols, vals) of R's rows in turn: row i holds
    vals[starts[i] : starts[i + 1]] at cols[starts[i] : starts[i + 1]], and
    its diagonal entry always, so that no row is empty. None where R would
    hold more than 4 nnz(M) + 4 n nonzeros, or one that is not finite.

    R is built a strip of _STRIP_ROWS rows at a time, by Horner from the
    left: the rows S of a strip are ((((S hM/4 + S) hM/3 + S) hM/2 + S) hM
    + S). Each product expands every nonzero (i, k) of the strip by row k of
    M and adds up, in the order of that expansion, the terms that meet at
    one (i, j), so a strip's temporaries are a few times its own nonzeros
    and R does not depend on the strips. A strip's nonzeros only grow from
    one product to the next, so a strip that passes the budget stops the
    build before it is done."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    budget = 4 * len(vals) + 4 * n
    # (i, j) of a strip is the key i << bits | j, row-major in key order; the
    # keys are sorted with each term's position in its low bits, so that the
    # sort is the stable one. A strip row, a column and a position take well
    # under 63 bits: 2^24 states would make a row block alone 34 GB.
    bits = int(n - 1).bit_length()
    low = (1 << bits) - 1
    strips, total = [], 0
    with np.errstate(all="ignore"):
        for r0 in range(0, n, _STRIP_ROWS):
            diag = np.arange(r0, min(n, r0 + _STRIP_ROWS))
            eye = (diag - r0) << bits | diag
            key, val = eye, np.ones(len(diag))
            for d in (4.0, 3.0, 2.0, 1.0):
                k = key & low
                count = indptr[k + 1] - indptr[k]
                ends = np.cumsum(count)
                at = np.arange(ends[-1]) + np.repeat(indptr[k] - ends + count, count)
                key = np.concatenate((np.repeat(key - k, count) | cols[at], eye))
                val = np.concatenate((np.repeat(val, count) * vals[at], np.zeros(len(eye))))
                shift = len(key).bit_length()
                order = np.sort(key << shift | np.arange(len(key)))
                key, val = order >> shift, val[order & ((1 << shift) - 1)]
                first = np.empty(len(key), dtype=bool)
                first[0] = True
                np.not_equal(key[1:], key[:-1], out=first[1:])
                first = np.flatnonzero(first)
                key, val = key[first], np.add.reduceat(val, first)
                val *= h / d
                val[np.searchsorted(key, eye)] += 1.0
                if total + len(key) > budget:
                    return None
            total += len(key)
            strips.append((np.bincount(key >> bits, minlength=len(diag)), key & low, val))
    counts, cols, vals = (np.concatenate(part) for part in zip(*strips))
    if not np.isfinite(vals).all():
        return None
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts, cols, vals


def _sparse_steps(starts, cols, vals, y, out) -> None:
    """From y, fill `out` with the samples of y <- R y, R given by the
    nonzeros of its rows (see `_sparse_step_map`)."""
    terms = np.empty(len(cols))
    for row in out:
        np.take(y, cols, out=terms, mode="clip")  # "raise" would gather into a buffer first
        np.multiply(terms, vals, out=terms)
        np.add.reduceat(terms, starts, out=row)
        y = row


def _rk4_stages(rows, cols, vals, y, out, dt) -> None:
    """Textbook four-stage RK4 for dy = M y, with M given by its nonzeros
    M[rows, cols] = vals: from y, fill `out` with the samples."""
    n = len(y)

    def f(y):
        return np.bincount(rows, weights=vals * y[cols], minlength=n)

    for k in range(len(out)):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        out[k] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = out[k]


class NetworkRun:
    """The whole closed-loop network under the given gain sets, assembled
    and ready to integrate.

    `scenario` provides leader, agents, topology, initial conditions and the
    horizon t_end with its step dt;
    `design` is the scenario's `protocol.CompensatorDesign`, and `gains`
    maps agent name -> GainSet. The compensator state of the leader node is
    the leader state itself.

    Each iteration integrates the network from its initial state and yields
    the run as consecutive row blocks (see `_rk4_lockstep`), each a
    `Trajectory` over the samples of that block. As a block passes, the
    norms of its followers' tracking errors go into `tracking`, a
    `TrackingSummary` whose metrics cover the whole run once an iteration
    has ended.
    """

    def __init__(self, scenario, design, gains: dict):
        leader, t_end, dt = scenario.leader, scenario.t_end, scenario.dt
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
        y0 = np.concatenate([leader.w0, *(scenario.xi0[name] for name in names),
                             np.tile(scenario.zeta0, N), *(scenario.x0[name] for name in names)])
        matrix = _network_matrix(scenario, gains, design, xi_off, z_off, x_off)

        self.tracking = TrackingSummary(_steps(t_end, dt), dt, names)
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
                *(np.stack(mats).mT for mats in (  # each matrix transposed
                    [g.K1 for g in gs], [g.K2 for g in gs], [g.K3 for g in gs],
                    [ag.C for ag in ags], [ag.D for ag in ags], [ag.F for ag in ags],
                )),
            ))
        self._integration = [matrix], y0[None], t_end, dt  # a lockstep stack of one system

    def __iter__(self):
        self.tracking = TrackingSummary(self.tracking.steps, self.tracking.dt, self.tracking.names)
        for _, first, block in _rk4_lockstep(*self._integration):
            trajectory = self._outputs(block[0], first)
            self.tracking.add(trajectory.norms)
            del block  # the trajectory holds views of it: both are freed before the next block
            yield trajectory
            del trajectory

    def tail_errors(self) -> dict:
        """Each follower's largest tracking-error norm over the last 10% of
        the horizon: the tail error of `tracking.metrics()` after a whole
        iteration, the same float. The run is formed, and the outputs of the
        followers computed, only as far back as that needs: on the step-map
        path, from the chunk that holds the sample before the tail (see
        `_rk4_lockstep`); on the others, every step is taken and the outputs
        start at the tail's block."""
        start = _tail_start(self.tracking.steps)
        top = np.full(len(self.tracking.names), -np.inf)
        for _, first, block in _rk4_lockstep(*self._integration, start):
            if first + block.shape[1] > start:
                norms = self._outputs(block[0], first).norms[max(0, start - first) :]
                np.maximum(top, norms.max(axis=0), out=top)
            del block  # before the next is allocated
        return dict(zip(self.tracking.names, top.tolist()))

    def _outputs(self, samples: np.ndarray, first: int) -> Trajectory:
        """The followers' streams over consecutive samples (rows) of the
        state from sample `first` on, and the norms of their tracking
        errors."""
        b, q = len(samples), self._q
        w = samples[:, :q]
        norms = np.empty((b, len(self.tracking.names)))
        groups = []
        for names, col, n, (x0, xi0, z0), K1, K2, K3, C, D, F in self._groups:
            G = len(names)

            x, xi, zeta = (samples[:, c : c + G * k].reshape(b, G, k).transpose(1, 0, 2)  # G x b x k views
                           for c, k in ((x0, n), (xi0, q), (z0, q)))
            u = -(x @ K1 + xi @ K2 + zeta @ K3)
            e = x @ C + u @ D - w @ F
            norms[:, col : col + G] = np.sqrt(_sum_squares(e)).T
            groups.append((names, x, xi, zeta, u, e))
        return Trajectory(times=np.arange(first, first + b) * self.tracking.dt, leader_states=w,
                          groups=groups, norms=norms)


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
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as not finite
        for i, (name, ag) in enumerate(scenario.agents):
            g = gains[name]
            strips.append(_row_strip(x_off[i], [
                (0, ag.E), (xi_off[i], -ag.B @ g.K2), (z_off[i], -ag.B @ g.K3),
                (x_off[i], ag.A - ag.B @ g.K1),
            ]))
    rows, cols, vals = (np.concatenate(part) for part in zip(*strips))
    if not np.isfinite(vals).all():
        bad = rows[~np.isfinite(vals) & (rows >= x_off[0])]  # in a follower's rows
        if len(bad):
            name = scenario.agents[np.searchsorted(x_off, bad[0], side="right") - 1][0]
            raise NumericalError(f"agent {name}: A - B K1, B K2 or B K3 has non-finite entries")
    return rows, cols, vals


def _row_strip(r0, blocks) -> tuple:
    """Nonzeros (rows, cols, vals), row-major, of the rows from r0 on that
    hold the dense `blocks`, (first column, block) pairs in column order."""
    strip = np.hstack([block for _, block in blocks])
    col = np.concatenate([c0 + np.arange(block.shape[1]) for c0, block in blocks])
    r, c = np.nonzero(strip)
    return r + r0, col[c], strip[r, c]


def simulate_augmented(plants, Ks, X0s, t_end: float, dt: float) -> list:
    """Cost of the closed augmented error systems dX = (A - B K) X of the
    plants of one shape under the gains Ks, from X0s, both by quadrature of
    |e|^2, e = (C - D K) X, over an RK4 run and by the closed form X0^T P X0
    with P the solution of the loop's Lyapunov equation. The members run in
    lockstep, in the integrator's batches and a row block at a time (see
    `_rk4_lockstep`).

    Before any member is integrated, one stacked `solve_lyapunov` of all the
    loops makes the checks of a policy-evaluation step and gives P; its one
    eigenvalue decomposition of A - B K serves both the refusal of a gain
    that is not stabilizing and the horizon warning. A blow-up stops the
    run. Returns each member's CostReport, with the bits of its run
    alone; at the first check any member fails, the call raises the error
    that member alone would raise.
    """
    K = np.array(Ks, dtype=float)
    A, B, C, D = (np.array([getattr(p, f) for p in plants]) for f in "ABCD")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below as not finite
        Acl, Cbar = A - B @ K, C - D @ K
        Q = Cbar.mT @ Cbar
    if not np.isfinite(Acl).all():
        raise NumericalError("A has non-finite entries")
    try:
        P, _, abscissa = solve_lyapunov(Acl, Q)
    except NotHurwitzError as exc:
        raise NumericalError("gain is not stabilizing; refusing the augmented run") from exc
    except ValueError as exc:  # a weight that is not finite or not symmetric
        raise NumericalError(str(exc)) from exc

    steps = _steps(t_end, dt)
    tail = _tail_start(steps)
    X0 = np.array(X0s, dtype=float)
    # per member, |e|^2 at the first and the latest sample, its sum over the
    # samples so far, and its largest value over the tail
    first_e2, last_e2, total, top = np.zeros((4, len(plants)))
    for members, first, block in _rk4_lockstep(Acl, X0, t_end, dt):
        e2 = _sum_squares(block @ Cbar[members].mT)
        if first == 0:
            first_e2[members] = e2[:, 0]
        last_e2[members] = e2[:, -1]
        # np.cumsum adds left to right, so a member's sum is the same float
        # whatever the blocks and the batch
        total[members] = np.cumsum(np.column_stack([total[members], e2]), axis=1)[:, -1]
        top[members] = np.maximum(top[members], e2[:, max(0, tail - first) :].max(axis=1, initial=0.0))
    quadrature = dt * (total - (first_e2 + last_e2) / 2)
    horizon = steps * dt
    warnings = [None if horizon >= 5.0 / -a else
                f"horizon {horizon:.3g}s is shorter than 5 time constants of the slowest mode "
                f"({1.0 / -a:.3g}s); quadrature may be truncated" for a in abscissa]
    return [CostReport(j, float(x0 @ p @ x0), float(np.sqrt(t)), w)
            for x0, p, w, j, t in zip(X0, P, warnings, quadrature.tolist(), top.tolist())]


class TrackingSummary:
    """What the tracking metrics read of the norms |e| of each follower's
    tracking error at the samples of a run, kept as consecutive blocks of
    them pass (`add`): each follower's largest norm over the last 10% of the
    horizon, and the last sample at which its norm is at least
    SETTLE_THRESHOLD. Two numbers per follower, whatever the horizon."""

    def __init__(self, steps: int, dt: float, names):
        self.steps, self.dt = steps, dt  # sample k is at time k * dt
        self.names = tuple(names)
        self._tail = np.full(len(self.names), -np.inf)
        self._last_above = np.full(len(self.names), -1)
        self.seen = 0  # samples added so far

    def add(self, values: np.ndarray) -> None:
        """Take the norms of the next len(values) samples, one column per
        follower."""
        tail = values[max(0, _tail_start(self.steps) - self.seen) :]
        if len(tail):
            np.maximum(self._tail, tail.max(axis=0), out=self._tail)
        above = values >= SETTLE_THRESHOLD
        hit = above.any(axis=0)
        last = self.seen + len(values) - 1 - np.argmax(above[::-1], axis=0)
        self._last_above[hit] = last[hit]
        self.seen += len(values)

    def metrics(self) -> dict:
        """Per-follower tail error and settle time of the tracking error,
        once every sample has been added."""
        out = {}
        for name, tail, last in zip(self.names, self._tail.tolist(), self._last_above.tolist()):
            if last < 0:
                settle = 0.0
            elif last == self.steps:
                settle = None  # not settled within the horizon
            else:
                settle = (last + 1) * self.dt
            out[name] = TrackingMetrics(tail_error=tail, settle_time=settle)
        return out


def _sum_squares(e: np.ndarray) -> np.ndarray:
    """|e|^2 over the last axis, as np.linalg.norm sums it: numpy adds fewer
    than 8 terms left to right, so adding the columns in turn is the same."""
    sq = e * e
    return sum(np.moveaxis(sq, -1, 0)) if sq.shape[-1] < 8 else np.sum(sq, axis=-1)


def _tail_start(steps: int) -> int:
    """First sample of the last 10% of a horizon of `steps` steps."""
    return int(np.ceil(0.9 * steps))
