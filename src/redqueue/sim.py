"""Seeded discrete-event simulation of redundancy dispatch with removal.

k exponential servers with FIFO queues receive Poisson batch arrivals.  A
batch is `groups` groups of `size` copies, each group on distinct servers;
a group completes at its `need`-th served copy, and the batch completes
when its last group does.  mds(n, m) is one group of n+m copies that needs
n; replication(d) is n groups of d copies that need one each, so
replication(d) and mds(1, d-1) are the same process.  With removal on, a
completing group removes its unserved copies instantly, both from queues
and from service (the freed server starts its next copy).

Service is Exp(1) and memoryless, so the loop draws the next event
directly instead of keeping an event heap (Grassmann, Comput. & OR 1977):
with b servers busy, the next event comes after Exp(batch_rate + b); it is
an arrival with probability batch_rate / (batch_rate + b), and otherwise
the service completion of a busy server chosen uniformly.  A preempted
copy therefore leaves no pending event behind: its server starts its next
copy at once, or leaves the busy list by an O(1) swap-remove when it has
none.  Removed queued copies are skipped lazily when they reach the head
of their FIFO.  Exponentials and uniforms are drawn
from the seeded generator in blocks of `BLOCK` and consumed one by one;
each group's servers are a uniform distinct subset drawn by Floyd's
algorithm (Bentley & Floyd, CACM 1987).

A ghost probe measures the virtual-job sojourn: at a probed batch arrival
one random queue is tagged and the probe's sojourn is the time until
everything currently in that queue has been served or removed, plus an
independent Exp(1) service.  The probe never occupies the server: it waits
in the tagged FIFO behind those copies, and the server records its sojourn
and skips it when it reaches the head, which is exactly when the last copy
ahead of it has left.

`counts["busy_time"]` is the integral of the number of busy servers over
the monitored window, which runs from the first monitored arrival until
arrivals stop, and `counts["monitored_time"]` is that window's length.
Each batch has exactly n served copies and the completion rate is the
number of busy servers, so busy_time / (k * monitored_time) estimates lam
for every policy: removal does not overburden the servers.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

POLICIES = ("mds", "replication")

BLOCK = 4096  # random variates drawn per numpy call


@dataclass(frozen=True)
class SimConfig:
    """One simulation cell.

    `horizon` and `warmup` count batches, not time.  Batches arrive at
    lam*k/n per unit time, so discarding W batches covers only W*n/(lam*k)
    time units: the default 10,000 at k = 1000, n = 1, lam = 0.95 is ~10.5
    time units, against a relaxation time of ~1/(1-lam) = 20.
    """

    params: SystemParams
    policy: str
    seed: int
    removal: bool = True
    horizon: int = 200_000
    warmup: int = 10_000
    probe_rate: float = 0.1
    drain: bool = False  # process all events to empty the system (for audits)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.params.lam >= 1:
            raise ValueError(
                f"lam must be < 1 for a stationary system, got lam={self.params.lam}"
            )
        if not 0 <= self.warmup < self.horizon:
            raise ValueError("need 0 <= warmup < horizon")
        if not 0.0 <= self.probe_rate <= 1.0:
            raise ValueError("probe_rate must lie in [0, 1]")


@dataclass
class SimResult:
    batch_samples: np.ndarray  # sorted batch completion times (after warmup)
    probe_samples: np.ndarray  # sorted virtual-probe sojourn times
    counts: dict
    config: SimConfig


class _Batch:
    __slots__ = ("t_arrive", "open_groups", "monitored")

    def __init__(self, t_arrive, groups, monitored):
        self.t_arrive = t_arrive
        self.open_groups = groups
        self.monitored = monitored


class _Group:
    """A queue entry stands for the group's copy on that queue's server."""

    __slots__ = ("batch", "unserved", "served", "live")

    def __init__(self, batch, servers):
        self.batch = batch
        self.unserved = servers  # servers whose copy is queued or in service
        self.served = 0
        self.live = True  # False once removal has taken the unserved copies


class _Probe:
    __slots__ = ("t_arrive", "service")

    def __init__(self, t_arrive, service):
        self.t_arrive = t_arrive
        self.service = service


def _stream(draw):
    """Endless iterator over draw(BLOCK), one numpy call per block."""
    while True:
        yield from draw(BLOCK).tolist()


def run(config: SimConfig) -> SimResult:
    """Run one simulation; fully deterministic given config.seed."""
    p = config.params
    k = p.k
    groups, size, need = (1, p.n + p.m, p.n) if config.policy == "mds" else (p.n, p.d, 1)
    removal = config.removal
    warmup, horizon, probe_rate = config.warmup, config.horizon, config.probe_rate
    rng = np.random.default_rng(config.seed)
    expo = _stream(rng.standard_exponential).__next__
    unif = _stream(rng.random).__next__
    batch_rate = p.lam * k / p.n
    floyd = range(k - size, k)

    queues = [deque() for _ in range(k)]  # groups and probes; dead groups skipped lazily
    in_service = [None] * k  # the group whose copy each server is serving
    busy = []  # the busy servers, in any order
    slot = [0] * k  # slot[s]: position of s in busy while s is busy

    batch_done_samples = []
    probe_done_samples = []
    arrived = completed = served = removed_queued = preempted = probes = 0
    monitored_open = probes_open = 0

    def free(s, t):
        """Server s's copy left: s starts its next live copy or goes idle."""
        nonlocal probes_open
        q = queues[s]
        while q:
            e = q.popleft()
            if e.__class__ is _Probe:  # everything ahead of the probe has left
                probe_done_samples.append((t - e.t_arrive) + e.service)
                probes_open -= 1
            elif e.live:
                in_service[s] = e
                return
        in_service[s] = None
        i = slot[s]
        last = busy.pop()
        if last != s:
            busy[i] = last
            slot[last] = i

    t = area = 0.0
    t_start = area_start = t_stop = area_stop = None
    rate = batch_rate  # 0 once arrivals stop

    while True:
        nbusy = len(busy)
        total = rate + nbusy
        if total == 0.0:  # drained
            break
        dt = expo() / total
        t += dt
        area += nbusy * dt
        x = unif() * total

        if x < rate:  # batch arrival
            if arrived == warmup:
                t_start, area_start = t, area
            monitored = warmup <= arrived < horizon
            arrived += 1
            batch = _Batch(t, groups, monitored)
            if monitored:
                monitored_open += 1
                if probe_rate > 0 and unif() < probe_rate:
                    s = int(unif() * k)
                    service = expo()
                    probes += 1
                    if in_service[s] is None:  # an idle server has an empty queue
                        probe_done_samples.append(service)
                    else:
                        queues[s].append(_Probe(t, service))
                        probes_open += 1
            for _ in range(groups):
                servers = []
                for j in floyd:  # Floyd: a uniform size-subset of range(k)
                    s = int(unif() * (j + 1))
                    servers.append(j if s in servers else s)
                group = _Group(batch, servers)
                for s in servers:
                    if in_service[s] is None:
                        in_service[s] = group
                        slot[s] = len(busy)
                        busy.append(s)
                    else:
                        queues[s].append(group)

        else:  # service completion at a uniformly chosen busy server
            i = int(x - rate)
            s = busy[i if i < nbusy else nbusy - 1]
            group = in_service[s]
            served += 1
            group.unserved.remove(s)
            free(s, t)  # its server starts its next copy before any sibling leaves
            group.served += 1
            if group.served == need:
                if removal:
                    group.live = False
                    for s in group.unserved:
                        if in_service[s] is group:
                            preempted += 1
                            free(s, t)
                        else:
                            removed_queued += 1
                batch = group.batch
                batch.open_groups -= 1
                if batch.open_groups == 0:
                    completed += 1
                    if batch.monitored:
                        batch_done_samples.append(t - batch.t_arrive)
                        monitored_open -= 1

        if arrived >= horizon and rate and monitored_open == 0 and probes_open == 0:
            rate = 0.0
            t_stop, area_stop = t, area
            if not config.drain:
                break

    return SimResult(
        batch_samples=np.sort(np.array(batch_done_samples)),
        probe_samples=np.sort(np.array(probe_done_samples)),
        counts={
            "batches_arrived": arrived,
            "batches_completed": completed,
            "copies_created": arrived * groups * size,
            "copies_served": served,
            "copies_removed_queued": removed_queued,
            "copies_preempted": preempted,
            "probes_injected": probes,
            "busy_time": area_stop - area_start,
            "monitored_time": t_stop - t_start,
        },
        config=config,
    )


def ecdf_tail(samples, t, delta: float = 0.01):
    """Empirical tail P(sample > t) with a distribution-free confidence band.

    Returns (estimate, lo, hi), each shaped like t; the band half-width is
    sqrt(ln(2/delta)/(2N)).  The samples are sorted once, so a whole grid
    of t costs one sort and one search.
    """
    xs = np.sort(samples, axis=None)
    n = xs.size
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    # (count of samples > t) / n, the same division np.mean(samples > t) does
    frac = (n - np.searchsorted(xs, t, side="right")) / n
    half = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return frac, np.maximum(0.0, frac - half), np.minimum(1.0, frac + half)


def sup_distance(samples, tail_fn) -> float:
    """KS-style sup distance between the empirical tail and a model tail.

    tail_fn maps an array of times to model tail probabilities; the sup is
    taken over both one-sided limits at every sample point.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("no samples")
    model = np.asarray(tail_fn(xs), dtype=float)
    emp_hi = 1.0 - np.arange(n) / n  # tail just below each sample
    emp_lo = 1.0 - np.arange(1, n + 1) / n  # tail just above
    return float(
        max(np.max(np.abs(model - emp_hi)), np.max(np.abs(model - emp_lo)))
    )
