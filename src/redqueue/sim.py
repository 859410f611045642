"""Seeded discrete-event simulation of redundancy dispatch with removal.

k exponential servers with FIFO queues receive Poisson batch arrivals.  A
batch is `groups` groups of `size` copies, each group on distinct servers;
a group completes at its `need`-th served copy, and the batch completes
when its last group does.  mds(n, m) is one group of n+m copies that needs
n; replication(d) is n groups of d copies that need one each, so
replication(d) and mds(1, d-1) are the same process.  With removal on, a
completing group removes its unserved copies instantly, both from queues
and from service (the freed server starts its next copy).

A ghost probe measures the virtual-job sojourn: at a probed batch arrival
one random queue is tagged and the probe's sojourn is the time until
everything currently in that queue has been served or removed, plus an
independent Exp(1) service.  The probe never occupies the server: it waits
in the tagged FIFO behind those copies, and the server records its sojourn
and skips it when it reaches the head, which is exactly when the last copy
ahead of it has left.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

QUEUED, IN_SERVICE, GONE, PROBE = 0, 1, 2, 3

POLICIES = ("mds", "replication")


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


class _Copy:
    __slots__ = ("group", "state", "server")

    def __init__(self, group, server):
        self.group = group
        self.state = QUEUED
        self.server = server


class _Group:
    __slots__ = ("batch", "copies", "served")

    def __init__(self, batch):
        self.batch = batch
        self.copies = []
        self.served = 0


class _Batch:
    __slots__ = ("t_arrive", "open_groups", "monitored")

    def __init__(self, t_arrive, groups, monitored):
        self.t_arrive = t_arrive
        self.open_groups = groups
        self.monitored = monitored


class _Probe:
    __slots__ = ("t_arrive", "service", "state")

    def __init__(self, t_arrive, service):
        self.t_arrive = t_arrive
        self.service = service
        self.state = PROBE


def _sample_distinct(rng, k, size):
    out = []
    while len(out) < size:
        s = int(rng.integers(k))
        if s not in out:
            out.append(s)
    return out


def run(config: SimConfig) -> SimResult:
    """Run one simulation; fully deterministic given config.seed."""
    p = config.params
    k = p.k
    groups, size, need = (1, p.n + p.m, p.n) if config.policy == "mds" else (p.n, p.d, 1)
    rng = np.random.default_rng(config.seed)
    batch_rate = p.lam * k / p.n
    heap = []  # (time, seq, copy); copy None marks a batch arrival
    seq = 0

    queues = [deque() for _ in range(k)]  # copies and probes; gone copies skipped lazily
    in_service = [None] * k

    batch_done_samples = []
    probe_done_samples = []
    counts = {
        "batches_arrived": 0,
        "batches_completed": 0,
        "copies_created": 0,
        "copies_served": 0,
        "copies_removed_queued": 0,
        "copies_preempted": 0,
        "probes_injected": 0,
    }
    monitored_open = 0
    probes_open = 0

    def push(t, copy):
        nonlocal seq
        heapq.heappush(heap, (t, seq, copy))
        seq += 1

    def start_service(s, copy, t):
        copy.state = IN_SERVICE
        in_service[s] = copy
        push(t + rng.exponential(), copy)

    def start_next(s, t):
        nonlocal probes_open
        q = queues[s]
        while q:
            c = q.popleft()
            if c.state == QUEUED:
                start_service(s, c, t)
                return
            if c.state == PROBE:  # everything ahead of the probe has left
                probe_done_samples.append((t - c.t_arrive) + c.service)
                probes_open -= 1

    def leave(copy, t):
        """Take a served or removed copy out; a freed server starts its next copy."""
        serving = copy.state == IN_SERVICE
        copy.state = GONE
        if serving:
            in_service[copy.server] = None
            start_next(copy.server, t)

    push(rng.exponential(1.0 / batch_rate), None)
    stop_arrivals = False

    while heap:
        t, _, copy = heapq.heappop(heap)

        if copy is None:  # batch arrival
            idx = counts["batches_arrived"]
            counts["batches_arrived"] += 1
            monitored = config.warmup <= idx < config.horizon
            batch = _Batch(t, groups, monitored)
            if monitored:
                monitored_open += 1
                if config.probe_rate > 0 and rng.random() < config.probe_rate:
                    s = int(rng.integers(k))
                    service = rng.exponential()
                    counts["probes_injected"] += 1
                    if in_service[s] is None:  # an idle server has an empty queue
                        probe_done_samples.append(service)
                    else:
                        queues[s].append(_Probe(t, service))
                        probes_open += 1
            # Draw every group's servers before any service time: the order
            # of draws fixes each seed's output.
            placements = [_sample_distinct(rng, k, size) for _ in range(groups)]
            for servers in placements:
                group = _Group(batch)
                for s in servers:
                    c = _Copy(group, s)
                    group.copies.append(c)
                    counts["copies_created"] += 1
                    if in_service[s] is None:
                        start_service(s, c, t)
                    else:
                        queues[s].append(c)
            if not stop_arrivals:
                push(t + rng.exponential(1.0 / batch_rate), None)

        elif copy.state == IN_SERVICE:  # service completion; else stale
            counts["copies_served"] += 1
            leave(copy, t)  # its server starts its next copy before any sibling leaves
            group = copy.group
            group.served += 1
            if group.served == need:
                if config.removal:
                    for c in group.copies:
                        if c.state != GONE:
                            serving = c.state == IN_SERVICE
                            counts["copies_preempted" if serving else "copies_removed_queued"] += 1
                            leave(c, t)
                group.copies = None  # no longer needed; frees the copy-group cycle
                batch = group.batch
                batch.open_groups -= 1
                if batch.open_groups == 0:
                    counts["batches_completed"] += 1
                    if batch.monitored:
                        batch_done_samples.append(t - batch.t_arrive)
                        monitored_open -= 1

        if (
            counts["batches_arrived"] >= config.horizon
            and monitored_open == 0
            and probes_open == 0
        ):
            stop_arrivals = True
            if not config.drain:
                break

    return SimResult(
        batch_samples=np.sort(np.array(batch_done_samples)),
        probe_samples=np.sort(np.array(probe_done_samples)),
        counts=dict(counts),
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
