"""Seeded discrete-event simulation of redundancy dispatch with removal.

k exponential servers with FIFO queues receive Poisson batch arrivals.
Under mds(n, m) each batch places n+m coded copies on distinct servers and
completes at the n-th copy completion; under replication(d) each of the n
jobs places d copies on distinct servers and completes at its first copy
completion.  On the trigger, sibling copies are removed instantly, both
from queues and from service (the freed server starts its next copy).

A ghost probe measures the virtual-job sojourn: at a probed batch arrival
one random queue is tagged and the probe's sojourn is the time until
everything currently in that queue has been served or removed, plus an
independent Exp(1) service.  The probe never occupies the server.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .params import SystemParams

QUEUED, IN_SERVICE, DONE, REMOVED = 0, 1, 2, 3

POLICIES = ("mds", "replication")


@dataclass(frozen=True)
class SimConfig:
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

    @property
    def copies_per_batch(self) -> int:
        p = self.params
        return p.n + p.m if self.policy == "mds" else p.n * p.d


@dataclass
class SimResult:
    batch_samples: np.ndarray  # sorted batch completion times (after warmup)
    probe_samples: np.ndarray  # sorted virtual-probe sojourn times
    counts: dict
    config: SimConfig


class _Copy:
    __slots__ = ("batch", "job", "state", "server", "watchers")

    def __init__(self, batch, job):
        self.batch = batch
        self.job = job
        self.state = QUEUED
        self.server = -1
        self.watchers = None


class _Batch:
    __slots__ = ("idx", "t_arrive", "copies", "completed", "job_done", "done", "monitored")

    def __init__(self, idx, t_arrive, n_jobs, monitored):
        self.idx = idx
        self.t_arrive = t_arrive
        self.copies = []
        self.completed = 0
        self.job_done = [False] * n_jobs
        self.done = False
        self.monitored = monitored


class _Probe:
    __slots__ = ("t_arrive", "service", "remaining")

    def __init__(self, t_arrive, service, remaining):
        self.t_arrive = t_arrive
        self.service = service
        self.remaining = remaining


def _sample_distinct(rng, k, size):
    if size == 1:
        return (int(rng.integers(k)),)
    out = []
    seen = set()
    while len(out) < size:
        s = int(rng.integers(k))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def run(config: SimConfig) -> SimResult:
    """Run one simulation; fully deterministic given config.seed."""
    p = config.params
    n, m, d, k = p.n, p.m, p.d, p.k
    mds = config.policy == "mds"
    rng = np.random.default_rng(config.seed)
    batch_rate = p.lam * k / n
    heap = []
    seq = 0

    queues = [[] for _ in range(k)]  # per-server FIFO, removed copies skipped lazily
    qhead = [0] * k  # pop index into queues[s]
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
    n_monitored = config.horizon - config.warmup

    def push(t, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    def start_service(s, copy, t):
        copy.state = IN_SERVICE
        in_service[s] = copy
        push(t + rng.exponential(), 1, (s, copy))

    def start_next(s, t):
        q = queues[s]
        while qhead[s] < len(q):
            c = q[qhead[s]]
            qhead[s] += 1
            if c.state == QUEUED:
                if qhead[s] > 64:
                    del q[: qhead[s]]
                    qhead[s] = 0
                start_service(s, c, t)
                return
        q.clear()
        qhead[s] = 0

    def notify_watchers(copy, t):
        nonlocal probes_open
        if copy.watchers is None:
            return
        for probe in copy.watchers:
            probe.remaining -= 1
            if probe.remaining == 0:
                probe_done_samples.append((t - probe.t_arrive) + probe.service)
                probes_open -= 1
        copy.watchers = None

    def remove_copy(copy, t):
        if copy.state == QUEUED:
            copy.state = REMOVED
            counts["copies_removed_queued"] += 1
            notify_watchers(copy, t)
        elif copy.state == IN_SERVICE:
            copy.state = REMOVED
            counts["copies_preempted"] += 1
            s = copy.server
            in_service[s] = None
            notify_watchers(copy, t)
            start_next(s, t)

    def complete_batch(batch, t, monitored):
        nonlocal monitored_open
        batch.done = True
        counts["batches_completed"] += 1
        if monitored:
            batch_done_samples.append(t - batch.t_arrive)
            monitored_open -= 1

    push(rng.exponential(1.0 / batch_rate), 0, None)
    stop_arrivals = False

    while heap:
        t, _, kind, payload = heapq.heappop(heap)

        if kind == 0:  # batch arrival
            idx = counts["batches_arrived"]
            counts["batches_arrived"] += 1
            monitored = config.warmup <= idx < config.horizon
            batch = _Batch(idx, t, n, monitored)
            if monitored:
                monitored_open += 1
                if config.probe_rate > 0 and rng.random() < config.probe_rate:
                    s = int(rng.integers(k))
                    service = rng.exponential()
                    ahead = []
                    if in_service[s] is not None:
                        ahead.append(in_service[s])
                    for c in queues[s][qhead[s] :]:
                        if c.state == QUEUED:
                            ahead.append(c)
                    counts["probes_injected"] += 1
                    if not ahead:
                        probe_done_samples.append(service)
                    else:
                        probe = _Probe(t, service, len(ahead))
                        probes_open += 1
                        for c in ahead:
                            if c.watchers is None:
                                c.watchers = []
                            c.watchers.append(probe)
            if mds:
                placements = [(-1, s) for s in _sample_distinct(rng, k, n + m)]
            else:
                placements = [
                    (j, s) for j in range(n) for s in _sample_distinct(rng, k, d)
                ]
            for job, s in placements:
                copy = _Copy(batch, job)
                copy.server = s
                batch.copies.append(copy)
                counts["copies_created"] += 1
                if in_service[s] is None:
                    start_service(s, copy, t)
                else:
                    queues[s].append(copy)
            if not stop_arrivals:
                push(t + rng.exponential(1.0 / batch_rate), 0, None)

        else:  # service completion
            s, copy = payload
            if copy.state != IN_SERVICE or in_service[s] is not copy:
                continue  # stale event for a removed copy
            copy.state = DONE
            counts["copies_served"] += 1
            in_service[s] = None
            notify_watchers(copy, t)
            start_next(s, t)
            batch = copy.batch
            if mds:
                batch.completed += 1
                if batch.completed == n and not batch.done:
                    complete_batch(batch, t, batch.monitored)
                    if config.removal:
                        for c in batch.copies:
                            if c.state in (QUEUED, IN_SERVICE):
                                remove_copy(c, t)
                        batch.copies = []
            else:
                j = copy.job
                if not batch.job_done[j]:
                    batch.job_done[j] = True
                    if config.removal:
                        for c in batch.copies:
                            if c.job == j and c is not copy and c.state in (QUEUED, IN_SERVICE):
                                remove_copy(c, t)
                    if all(batch.job_done) and not batch.done:
                        complete_batch(batch, t, batch.monitored)
                        if config.removal:
                            batch.copies = []

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

    Returns (estimate, lo, hi); the band half-width is sqrt(ln(2/delta)/(2N)).
    """
    samples = np.asarray(samples)
    n = samples.size
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    frac = float(np.mean(samples > t))
    half = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return frac, max(0.0, frac - half), min(1.0, frac + half)


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
