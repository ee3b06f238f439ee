"""A queued front-end over :class:`~repro.disk.drive.SimulatedDisk`.

The drive itself services one host request at a time (as the paper's
synchronous driver did).  Under multi-client load many requests can be
outstanding at once, so this layer holds them in a host-side queue and
dispatches the next one each time the drive frees up, under a pluggable
discipline:

- ``fcfs``  — submission order;
- ``sstf``  — shortest seek first (closest LBA to the arm);
- ``clook`` — the C-LOOK sweep the paper's driver applied to batches
  (:func:`repro.blockdev.scheduler.clook_next`), here applied to the
  live queue.

Every request records its queueing delay (submit → dispatch), and the
queue integrates depth over time so experiments can report mean queue
depth alongside latency percentiles.

Flush barriers (``op == "flush"``) drain the drive's write-behind
buffer; they are dispatched ahead of positional choices so a client's
``sync`` cannot be starved by a stream of better-placed requests.

With a :class:`~repro.faults.schedule.FaultSchedule` attached, each
dispatch consults it: a transient fault occupies the drive for the
error-report latency, then the request re-enters the queue after an
exponential backoff (a fresh dispatch gets a fresh decision); a hard
fault — or an exhausted retry budget — completes the request with its
``error`` field set, so clients degrade gracefully instead of
crashing the loop.  Requeues do not recount as submissions, keeping
``submitted == completed`` balanced; ``retried``/``failed`` count the
fault traffic separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.blockdev.scheduler import clook_next, sstf_next
from repro.disk.drive import SimulatedDisk
from repro.engine.eventloop import EventLoop
from repro.errors import InvalidArgument
from repro.faults.schedule import HARD, OK, FaultSchedule, RetryPolicy

SCHEDULERS = ("fcfs", "sstf", "clook")

#: Histogram buckets (seconds) for the retried-request latency metric.
#: Sized around the default RetryPolicy: 2 ms backoff doubling per
#: retry, plus one drive service time (~10 ms) per extra attempt.
RETRY_LATENCY_BUCKETS = (0.002, 0.005, 0.010, 0.020, 0.050,
                         0.100, 0.250, 1.000)


@dataclass(slots=True, eq=False)
class QueuedRequest:
    """One host request travelling through the queue (compared by
    identity: the queue dispatches by position, never by field value)."""

    op: str                    # "read" | "write" | "flush"
    lba: int
    nsectors: int
    client: int                # issuing client id (engine bookkeeping)
    on_complete: Optional[Callable[["QueuedRequest"], None]] = None
    submit_time: float = 0.0
    first_submit_time: float = 0.0  # original submit (requeues reset submit_time)
    dispatch_time: float = 0.0
    complete_time: float = 0.0
    retries: int = 0           # transient faults survived so far
    error: Optional[str] = None  # set when the request failed for good

    @property
    def queue_delay(self) -> float:
        """Time spent waiting in the host queue before the dispatch that
        finished it (requeued attempts reset the submit mark)."""
        return self.dispatch_time - self.submit_time

    @property
    def latency(self) -> float:
        """Submit-to-completion time as the issuing client saw it."""
        return self.complete_time - self.submit_time


@dataclass
class QueueAccounting:
    """Counters the queue accumulates (diffable, like DiskStats)."""

    submitted: int = 0
    completed: int = 0
    retried: int = 0              # transient faults that led to a requeue
    failed: int = 0               # requests completed with an error
    total_queue_delay: float = 0.0
    max_depth: int = 0
    depth_area: float = 0.0       # integral of queue depth over time
    busy_time: float = 0.0        # drive front-end occupied
    span: float = 0.0             # first submit -> last completion

    @property
    def mean_queue_depth(self) -> float:
        return self.depth_area / self.span if self.span > 0 else 0.0

    @property
    def mean_queue_delay(self) -> float:
        return self.total_queue_delay / self.completed if self.completed else 0.0

    def snapshot(self) -> "QueueAccounting":
        return QueueAccounting(**vars(self))

    def delta(self, earlier: "QueueAccounting") -> "QueueAccounting":
        out = QueueAccounting()
        for name in vars(out):
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        out.max_depth = self.max_depth  # high-water mark, not a counter
        return out


class DiskQueue:
    """Admits overlapping requests; feeds the drive one at a time."""

    def __init__(
        self,
        loop: EventLoop,
        disk: SimulatedDisk,
        policy: str = "clook",
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if policy not in SCHEDULERS:
            raise InvalidArgument(
                "unknown queue policy %r; known: %s" % (policy, ", ".join(SCHEDULERS))
            )
        self.loop = loop
        self.disk = disk
        self.policy = policy
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.stats = QueueAccounting()
        self._pending: List[QueuedRequest] = []
        self._busy = False
        self._first_submit: Optional[float] = None
        self._last_depth_mark = 0.0
        self._attempts: Dict[str, int] = {"read": 0, "write": 0}

    # -- public -------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests waiting (excludes the one in service)."""
        return len(self._pending)

    def submit(
        self,
        op: str,
        lba: int,
        nsectors: int,
        client: int = 0,
        on_complete: Optional[Callable[[QueuedRequest], None]] = None,
    ) -> QueuedRequest:
        """Queue a request at the current loop time; returns it.

        ``on_complete(request)`` fires (as a loop event) when the drive
        reports host completion.
        """
        req = QueuedRequest(op=op, lba=lba, nsectors=nsectors, client=client,
                            on_complete=on_complete)
        req.submit_time = req.first_submit_time = self.loop.now
        if self._first_submit is None:
            self._first_submit = req.submit_time
            self._last_depth_mark = req.submit_time
        self._integrate_depth()
        self._pending.append(req)
        self.stats.submitted += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._pending))
        self._try_dispatch()
        return req

    def flush_barrier(
        self, client: int = 0,
        on_complete: Optional[Callable[[QueuedRequest], None]] = None,
    ) -> QueuedRequest:
        """Queue a write-behind drain (a client's ``sync`` boundary)."""
        return self.submit("flush", 0, 0, client=client, on_complete=on_complete)

    # -- internals ------------------------------------------------------------

    def _integrate_depth(self) -> None:
        now = self.loop.now
        self.stats.depth_area += len(self._pending) * (now - self._last_depth_mark)
        self._last_depth_mark = now

    def _select(self) -> int:
        """Index of the next request per policy (pending must be non-empty)."""
        for i, req in enumerate(self._pending):  # barriers jump the queue
            if req.op == "flush":
                return i
        if self.policy == "fcfs":
            return 0
        head = self.disk.current_lba_estimate()
        addresses = [req.lba for req in self._pending]
        if self.policy == "sstf":
            return sstf_next(addresses, head)
        return clook_next(addresses, head)

    def _try_dispatch(self) -> None:
        if self._busy or not self._pending:
            return
        i = self._select()
        self._integrate_depth()
        req = self._pending.pop(i)
        req.dispatch_time = self.loop.now
        self.stats.total_queue_delay += req.queue_delay

        if self.faults is not None and req.op in ("read", "write"):
            index = self._attempts[req.op]
            self._attempts[req.op] = index + 1
            decision = self.faults.decide(req.op, index)
            if decision.kind != OK:
                # The drive is occupied for the time it takes to report
                # the error, but no media transfer happens.
                completion = req.dispatch_time + self.retry.error_latency
                self._busy = True
                self.stats.busy_time += self.retry.error_latency
                if decision.kind == HARD or req.retries + 1 >= self.retry.max_attempts:
                    req.error = (
                        "hard %s fault at lba %d" % (req.op, req.lba)
                        if decision.kind == HARD
                        else "%s at lba %d failed after %d attempts"
                        % (req.op, req.lba, req.retries + 1)
                    )
                    self.stats.failed += 1
                    self.loop.call_at(completion, self._complete, req)
                else:
                    req.retries += 1
                    self.stats.retried += 1
                    obs.count("queue.retried")
                    obs.count("queue.retried.%s" % req.op)
                    self.loop.call_at(completion, self._release_and_requeue, req)
                return

        # Service against the drive's private clock.  Dispatch times are
        # non-decreasing (the loop processes events in time order), so
        # the drive clock moves monotonically.
        drive_clock = self.disk.clock
        drive_clock.advance_to(req.dispatch_time)
        if req.op == "read":
            self.disk.read(req.lba, req.nsectors)
        elif req.op == "write":
            self.disk.write(req.lba, req.nsectors)
        elif req.op == "flush":
            self.disk.flush_write_buffer()
        else:
            raise InvalidArgument("unknown request op %r" % req.op)
        completion = drive_clock.now

        self._busy = True
        self.stats.busy_time += completion - req.dispatch_time
        self.loop.call_at(completion, self._complete, req)

    def _release_and_requeue(self, req: QueuedRequest) -> None:
        """Free the drive after a transient fault; resubmit after backoff."""
        self._busy = False
        self.loop.call_later(self.retry.delay(req.retries - 1), self._resubmit, req)
        self._try_dispatch()

    def _resubmit(self, req: QueuedRequest) -> None:
        # Not a new submission for accounting purposes, but the queue
        # delay of this attempt starts fresh.
        req.submit_time = self.loop.now
        self._integrate_depth()
        self._pending.append(req)
        self.stats.max_depth = max(self.stats.max_depth, len(self._pending))
        self._try_dispatch()

    def _complete(self, req: QueuedRequest) -> None:
        req.complete_time = self.loop.now
        self.stats.completed += 1
        # One queue-layer span per request, covering the client-visible
        # submit -> complete interval (service time + queueing delay).
        obs.record("queue", req.op, req.submit_time, req.complete_time,
                   client=req.client, lba=req.lba, nsectors=req.nsectors,
                   queue_delay=req.queue_delay, retries=req.retries,
                   error=req.error)
        obs.count("queue.completed")
        if req.error is not None:
            obs.count("queue.failed")
        if req.retries > 0:
            # End-to-end latency of requests that survived at least one
            # transient fault: original submit -> final completion, so
            # backoff sleeps and every extra service attempt count.
            obs.observe("queue.retry_latency",
                        req.complete_time - req.first_submit_time,
                        buckets=RETRY_LATENCY_BUCKETS)
        if self._first_submit is not None:
            self.stats.span = req.complete_time - self._first_submit
        self._busy = False
        self._try_dispatch()
        if req.on_complete is not None:
            req.on_complete(req)
