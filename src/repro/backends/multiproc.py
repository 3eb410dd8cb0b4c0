"""Shared-memory multiprocessing backend: the doacross protocol across
real OS processes.

The threaded backend proves the paper's protocol correct under the GIL;
this backend removes the GIL from the picture.  A pool of worker
*processes* executes the three phases of the preprocessed doacross
(§2.2–2.3) against ``multiprocessing.shared_memory`` segments that play
the paper's shared arrays directly:

- ``iter``  — writer iteration per ``y`` element (``MAXINT`` = unwritten),
- ``ready`` — one byte per element, the Figure-5 busy-wait flags,
- ``ynew``  — the renamed write targets (antidependence removal),
- ``y``     — the live values, updated by the postprocessor.

Execution positions are strip-mined into contiguous *chunks* of
``chunk`` positions (§2.3), dealt round-robin to workers; each worker
executes its chunks in increasing order, so every cross-chunk true
dependence points to a strictly earlier chunk and the busy-wait protocol
is deadlock-free by the same induction as the cyclic threaded schedule
(DESIGN.md §6).  A natural-order run applies doconsider inside each
strip: it executes :func:`~repro.backends.layout.in_chunk_order`, each
chunk's iterations sorted by their level in the chunk's own part of the
dependence DAG, so a chunk's early levels run while the previous chunk
is still finishing instead of waiting on its tail.  A caller's (or the
doconsider pass's) order runs exactly as given.

Within a chunk the worker precomputes a per-term classification from the
shared ``iter`` array (old-``y`` read / same-chunk ``ynew`` read /
cross-chunk wait / intra-iteration accumulator) — the Figure-5 compare
hoisted out of the inner loop and, for natural-order runs, kept across
loop instances per dependence structure.  The per-term body then reads
Python lists and ``memoryview``\\ s rather than NumPy scalars.

Every blocking cross-chunk wait is bounded by a
:class:`~repro.backends.waitladder.WaitLadder` (spin, then escalating
sleep, then :class:`~repro.errors.WaitTimeout`), so a corrupted schedule
diagnoses itself instead of hanging the pool; after a timeout the scratch
arrays are marked dirty and fully re-reset before the next run, keeping
the pool and its shared segments reusable.

The pool outlives a call: there is one per worker count per process,
shared by every runner with that count and holding its shared-memory
sessions (one per loop structure).  Runs on one pool are serialized.  A
pool closes itself :data:`IDLE_CLOSE_SECONDS` after its last run, and
the next run starts it again; a run that finds a dead worker restarts
it.

Like the other real-concurrency backends the arithmetic is *exactly* the
sequential oracle's: per iteration, terms accumulate in original order as
float64 scalar operations, so outputs are bitwise equal to
:meth:`~repro.ir.loop.IrregularLoop.run_sequential` (tested by the
conformance matrix).

Observability: span times are ``time.perf_counter`` readings, which on
Linux is ``CLOCK_MONOTONIC`` — one clock domain across all processes —
so per-worker inspector/executor/postprocessor phase spans and the
compute/wait alternation inside the executor merge directly into the
session's :class:`~repro.obs.spans.SpanRecorder`, lane = worker id,
``pid`` tagged in the attrs.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from multiprocessing import connection, shared_memory

import numpy as np

from repro.backends.base import (
    Runner,
    note_ignored_options,
    validate_execution_order,
)
from repro.backends.cache import InspectorCache, LoopStructure, loop_fingerprint
from repro.backends.layout import in_chunk_order
from repro.backends.waitladder import DEFAULT_LADDER, WaitLadder
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT
from repro.errors import ReproError, WaitTimeout
from repro.graph.depgraph import DependenceGraph
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_COMPUTE, CAT_PHASE, CAT_WAIT

__all__ = ["MultiprocRunner"]

#: Seconds a worker pool stays up after its last run before it closes
#: itself (workers exit, shared segments are unlinked).  A restart costs
#: about 12 ms, so this keeps restarts under ~1.2% of the idle gap.
IDLE_CLOSE_SECONDS = 1.0

#: How often a result collect checks that every worker is still alive.
_POLL_SECONDS = 0.5

_START_METHOD = (
    "fork" if "fork" in mp.get_all_start_methods()
    else mp.get_all_start_methods()[0]
)

# Shared-memory block layout: (field, dtype, which shape dimension).
_BLOCKS = (
    ("write", np.int64, "n"),
    ("ptr", np.int64, "n1"),
    ("index", np.int64, "terms"),
    ("coeff", np.float64, "terms"),
    ("init", np.float64, "n"),
    ("order", np.int64, "n"),
    ("y", np.float64, "y"),
    ("ynew", np.float64, "y"),
    ("iter", np.int64, "y"),
    ("ready", np.uint8, "y"),
)

#: Blocks the executor reads per term, with their ``memoryview`` format:
#: indexing a memoryview yields a Python float or int directly, several
#: times cheaper than materializing a NumPy scalar.
_SCALAR_FORMATS = {"coeff": "d", "init": "d", "y": "d", "ynew": "d", "ready": "B"}


def _block_len(dim: str, n: int, y_size: int, terms: int) -> int:
    return {"n": n, "n1": n + 1, "terms": terms, "y": y_size}[dim]


def _chunk_ranges(
    n: int, chunk: int, workers: int, wid: int, start: int = 0,
    stop: int | None = None,
):
    """Worker ``wid``'s chunks among positions ``[start, stop)`` (default:
    all): contiguous ``chunk``-sized position ranges dealt round-robin by
    global chunk number, visited in increasing order (deadlock freedom).
    ``start`` must be chunk-aligned."""
    stop = n if stop is None else stop
    first = start // chunk
    first += (wid - first) % workers
    for c in range(first, -(-stop // chunk), workers):
        lo = c * chunk
        yield lo, min(stop, lo + chunk)


# ----------------------------------------------------------------------
# Worker process side.
# ----------------------------------------------------------------------


def _mute_shm_tracking() -> None:
    """Called once per worker process: stop the resource tracker from
    recording shared-memory *attachments*.

    Attaching registers the segment as if this process owned it; the main
    process is the owner and unlinks every segment itself, so worker-side
    registrations are spurious — depending on fork timing they either
    produce bogus "leaked shared_memory" warnings at worker exit (worker
    spawned its own tracker) or KeyErrors in a shared tracker when the
    owner unregisters first.  Workers never create segments, so dropping
    shared-memory registrations entirely is safe."""
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register


def _worker_attach(meta: dict) -> dict:
    """Attach one session's shared blocks and build the numpy views and
    the executor's scalar memoryviews."""
    n, y_size, terms = meta["n"], meta["y_size"], meta["terms"]
    shms, views, scalars = [], {}, {}
    for field, dtype, dim in _BLOCKS:
        shm = shared_memory.SharedMemory(name=meta["names"][field])
        shms.append(shm)
        count = _block_len(dim, n, y_size, terms)
        views[field] = np.ndarray((count,), dtype=dtype, buffer=shm.buf)
        if field in _SCALAR_FORMATS:
            scalars[field] = shm.buf.cast(_SCALAR_FORMATS[field])
    return {
        "shms": shms,
        "views": views,
        "scalars": scalars,
        "n": n,
        "counts": np.diff(views["ptr"]),
        # Chunk programs for the order named by ``plan_key`` (see
        # _task_executor), by chunk start.
        "plans": {},
        "plan_key": None,
    }


def _chunk_plan(sess: dict, lo: int, hi: int, pos: np.ndarray) -> list:
    """The executor's program for position chunk ``[lo, hi)`` of the
    session's ``order``: one ``(i, w, terms)`` row per iteration in
    execution order, ``w`` its write target and ``terms`` its reads as
    ``(code, element, term)`` in original term order.

    ``code`` is the Figure-5 compare precomputed from ``iter``: 0 = read
    old ``y`` (anti/unwritten), 1 = read ``ynew`` whose writer sits at an
    earlier position of this same chunk (no flag needed — this worker
    wrote it), 2 = cross-chunk true dependence (ladder wait on
    ``ready``), 3 = intra-iteration (live accumulator).  ``pos`` is the
    inverse of ``order``.  Depends only on the loop's structure and the
    order."""
    v = sess["views"]
    ptr, index = v["ptr"], v["index"]
    its = v["order"][lo:hi]
    cnt = sess["counts"][its]
    bounds = np.zeros(len(cnt) + 1, dtype=np.int64)
    np.cumsum(cnt, out=bounds[1:])
    total = int(bounds[-1])
    terms = np.repeat(ptr[its] - bounds[:-1], cnt) + np.arange(
        total, dtype=np.int64
    )
    elems = index[terms]
    writers = v["iter"][elems]
    readers = np.repeat(its, cnt)
    code = np.zeros(total, dtype=np.int8)
    code[writers == readers] = 3
    td = np.nonzero(writers < readers)[0]
    if len(td):
        wpos = pos[writers[td]]
        rpos = np.repeat(np.arange(lo, hi, dtype=np.int64), cnt)[td]
        in_chunk = (wpos >= lo) & (wpos < rpos)
        code[td[in_chunk]] = 1
        code[td[~in_chunk]] = 2
    flat = list(zip(code.tolist(), elems.tolist(), terms.tolist()))
    b = bounds.tolist()
    return [
        (i, w, flat[b[j] : b[j + 1]])
        for j, (i, w) in enumerate(zip(its.tolist(), v["write"][its].tolist()))
    ]


def _task_inspector(sess: dict, opts: dict, wid: int) -> dict:
    """Phase 1: fill this worker's slice of ``iter`` (Figure 3, left).
    ``iter[write[i]] = i`` is order-independent, so chunks fill in one
    vectorized store each regardless of any doconsider order."""
    v = sess["views"]
    it, write = v["iter"], v["write"]
    observe = opts["observe"]
    if observe:
        t0 = time.perf_counter()
    inspected = 0
    for lo, hi in _chunk_ranges(
        sess["n"], opts["chunk"], opts["workers"], wid
    ):
        it[write[lo:hi]] = np.arange(lo, hi, dtype=np.int64)
        inspected += hi - lo
    payload: dict = {
        "wid": wid,
        "metrics": {"inspector_iterations": inspected},
    }
    if observe:
        payload["spans"] = [
            (
                "inspector",
                CAT_PHASE,
                t0,
                time.perf_counter(),
                {"pid": os.getpid(), "elided": False},
            )
        ]
    return payload


def _task_executor(sess: dict, opts: dict, wid: int) -> dict:
    """Phase 2: the Figure-5 executor over this worker's chunks of the
    session's ``order``, per term and per element, every blocking wait
    bounded by the ladder.

    With ``opts["round"]`` set this is one *group round* of the
    group-synchronous executor over positions ``opts["glo"]:opts["ghi"]``:
    the DistancePass proved every cross-iteration true dependence reaches
    into a strictly earlier group (a chunk-aligned floor of the proven
    ``min_distance``), and the coordinator collects every worker between
    rounds, so a cross-chunk read (code 2) is a direct ``ynew`` read with
    **no flag check** and no flag is ever set.  The coordinator's collect
    *is* the barrier; the shadow log records it as one ``("g", round)``
    barrier generation per worker.

    ``opts["order_key"]`` names a structure-only order (natural runs'
    in-chunk order); chunk programs for it are kept across runs.  ``None``
    (a caller's order) classifies afresh.
    """
    sc = sess["scalars"]
    coeff, init, y = sc["coeff"], sc["init"], sc["y"]
    ynew, ready = sc["ynew"], sc["ready"]
    n = sess["n"]
    chunk, workers = opts["chunk"], opts["workers"]
    external, observe, ladder = opts["external"], opts["observe"], opts["ladder"]
    group_round = opts.get("round")
    flags = group_round is None
    events: list | None = [] if opts["sanitize"] else None
    timed_out: WaitTimeout | None = None
    pid = os.getpid()

    key = opts["order_key"]
    plans = sess["plans"]
    if key is None or sess["plan_key"] != key:
        plans.clear()
        sess["plan_key"] = key
    pos = None

    flag_checks = flag_sets = busy_waits = iterations = 0
    wait_escalations = elided = classified = 0
    wait_seconds = 0.0
    spans: list = []
    if observe:
        t_phase = time.perf_counter()
        seg_start = t_phase

    try:
        for lo, hi in _chunk_ranges(
            n, chunk, workers, wid, opts.get("glo", 0), opts.get("ghi")
        ):
            rows = plans.get(lo)
            if rows is None:
                if pos is None:
                    pos = np.empty(n, dtype=np.int64)
                    pos[sess["views"]["order"]] = np.arange(n, dtype=np.int64)
                rows = _chunk_plan(sess, lo, hi, pos)
                classified += 1
                if key is not None:
                    plans[lo] = rows
            for i, w, terms in rows:
                acc = init[i] if external else y[w]
                for c, e, k in terms:
                    if c == 0:
                        if events is not None:
                            events.append(("r", i, e, 0))
                        value = y[e]
                    elif c == 3:
                        value = acc
                    elif c == 1:
                        # Same-chunk renamed read: this worker wrote it
                        # earlier, so program order is the hb edge.
                        if events is not None:
                            events.append(("r", i, e, 1))
                        value = ynew[e]
                    else:
                        if not flags:
                            # An earlier group wrote it: the elided wait.
                            elided += 1
                        else:
                            flag_checks += 1
                            if events is not None:
                                # Log the acquire *before* blocking: the
                                # per-chunk order is unchanged on success,
                                # and a timed-out ladder leaves the
                                # unsatisfied acquire in the shadow log
                                # for the sanitizer to name.
                                events.append(("a", e))
                            if not ready[e]:
                                busy_waits += 1
                                if observe:
                                    # Blocking wait: close the running
                                    # compute span, record the wait
                                    # (threaded-backend tiling invariant,
                                    # same span vocabulary).
                                    w0 = time.perf_counter()
                                    spans.append(
                                        ("compute", CAT_COMPUTE, seg_start,
                                         w0, {"pid": pid})
                                    )
                                    slept = ladder.wait(
                                        lambda: ready[e], element=e
                                    )
                                    w1 = time.perf_counter()
                                    spans.append(
                                        ("wait", CAT_WAIT, w0, w1,
                                         {"pid": pid, "element": e})
                                    )
                                    wait_seconds += w1 - w0
                                    seg_start = w1
                                else:
                                    slept = ladder.wait(
                                        lambda: ready[e], element=e
                                    )
                                    wait_seconds += slept
                                if slept > 0:
                                    # Past the spin rung: this stall was
                                    # long enough to sleep on (the
                                    # doctor's wait-escalation evidence).
                                    wait_escalations += 1
                        if events is not None:
                            events.append(("r", i, e, 1))
                        value = ynew[e]
                    acc += coeff[k] * value
                ynew[w] = acc
                if flags:
                    ready[w] = 1
                    if events is not None:
                        events.append(("w", i, w))
                        events.append(("p", w))
                elif events is not None:
                    # Elided post: ready[w] is never written in group mode.
                    events.append(("w", i, w))
            iterations += len(rows)
    except WaitTimeout as exc:
        if events is None:
            raise
        # Sanitizing: ship the partial shadow log home with the timeout
        # riding in the payload — the "err" path would discard the log,
        # and the log usually explains the hang better than the timeout.
        timed_out = exc

    metrics: dict = {
        "flag_checks": flag_checks,
        "busy_waits": busy_waits,
        "wait_seconds": wait_seconds,
        "iterations": iterations,
        "chunks_classified": classified,
    }
    if flags:
        metrics["flag_sets"] = iterations
        metrics["wait_escalations"] = wait_escalations
    else:
        metrics["flag_sets"] = 0
        metrics["sync_elisions"] = iterations + elided
    payload: dict = {"wid": wid, "metrics": metrics}
    if observe:
        t_end = time.perf_counter()
        if flags:
            spans.append(
                ("compute", CAT_COMPUTE, seg_start, t_end, {"pid": pid})
            )
            spans.append(("executor", CAT_PHASE, t_phase, t_end, {"pid": pid}))
        else:
            spans.append(
                ("executor", CAT_PHASE, t_phase, t_end,
                 {"pid": pid, "group_round": group_round})
            )
        payload["spans"] = spans
    if events is not None:
        if not flags:
            # Every worker logs the round barrier, share or no share —
            # the sanitizer's replay releases a generation only when
            # *all* lanes arrive.
            events.append(("b", ("g", group_round)))
        payload["sanitize"] = {"pid": pid, "events": events}
        if timed_out is not None:
            payload["wait_timeout"] = timed_out
    return payload


def _task_post(sess: dict, opts: dict, wid: int) -> dict:
    """Phase 3: reset scratch for the written elements and publish
    ``ynew`` into ``y`` — the arrays are reusable immediately after."""
    v = sess["views"]
    write, it = v["write"], v["iter"]
    y, ynew, ready = v["y"], v["ynew"], v["ready"]
    observe = opts["observe"]
    if observe:
        t0 = time.perf_counter()
    for lo, hi in _chunk_ranges(
        sess["n"], opts["chunk"], opts["workers"], wid
    ):
        w = write[lo:hi]
        it[w] = MAXINT
        y[w] = ynew[w]
        ready[w] = 0
    payload: dict = {"wid": wid, "metrics": {}}
    if observe:
        payload["spans"] = [
            (
                "postprocessor",
                CAT_PHASE,
                t0,
                time.perf_counter(),
                {"pid": os.getpid()},
            )
        ]
    return payload


_TASKS = {
    "inspector": _task_inspector,
    "executor": _task_executor,
    "post": _task_post,
}


def _worker_detach(sess: dict) -> None:
    """Release one attached session: memoryviews and numpy views first
    (they export the mmap's buffer; closing underneath them raises
    ``BufferError``)."""
    for view in sess["scalars"].values():
        view.release()
    sess["scalars"].clear()
    sess["views"].clear()
    sess["plans"].clear()
    sess["counts"] = None
    for shm in sess["shms"]:
        shm.close()


def _worker_main(wid: int, conn) -> None:
    """Worker process loop: attach sessions, run phase tasks, reply once
    per task over ``conn``.  Exceptions (including :class:`WaitTimeout`)
    are shipped back as replies — the worker survives them and keeps
    serving."""
    _mute_shm_tracking()
    sessions: dict[str, dict] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # the main process went away
            msg = ("exit",)
        kind = msg[0]
        if kind == "exit":
            for sess in sessions.values():
                _worker_detach(sess)
            return
        try:
            payload = None
            if kind == "attach":
                _, key, meta = msg
                sessions[key] = _worker_attach(meta)
            elif kind == "forget":
                _, key = msg
                sess = sessions.pop(key, None)
                if sess is not None:
                    _worker_detach(sess)
            else:
                _, key, opts = msg
                payload = _TASKS[kind](sessions[key], opts, wid)
            conn.send(("ok", payload))
        except BaseException as exc:
            conn.send(("err", exc))


# ----------------------------------------------------------------------
# Main process side.
# ----------------------------------------------------------------------


class _Session:
    """One loop structure's shared-memory arena (owned by the main
    process; workers hold attached views)."""

    def __init__(self, key: str, loop: IrregularLoop):
        self.key = key
        self.n = loop.n
        self.y_size = loop.y_size
        self.terms = int(loop.reads.total_terms)
        self.dirty = False
        #: Which structure-only order the ``order`` block holds
        #: (``("in-chunk", chunk)``), or ``None`` for a caller's order.
        self.order_key: tuple | None = None
        self.shms: dict[str, shared_memory.SharedMemory] = {}
        self.views: dict[str, np.ndarray] = {}
        for field, dtype, dim in _BLOCKS:
            count = _block_len(dim, self.n, self.y_size, self.terms)
            nbytes = max(1, count) * np.dtype(dtype).itemsize
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self.shms[field] = shm
            self.views[field] = np.ndarray(
                (count,), dtype=dtype, buffer=shm.buf
            )
        # Structure (shipped once per session) + clean scratch.
        self.views["write"][:] = loop.write
        self.views["ptr"][:] = loop.reads.ptr
        self.views["index"][:] = loop.reads.index
        self.views["iter"][:] = MAXINT
        self.views["ready"][:] = 0
        self.views["ynew"][:] = 0.0

    def meta(self) -> dict:
        return {
            "n": self.n,
            "y_size": self.y_size,
            "terms": self.terms,
            "names": {f: shm.name for f, shm in self.shms.items()},
        }

    def destroy(self) -> None:
        # Views hold exported buffers; drop them before closing the maps.
        self.views.clear()
        for shm in self.shms.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.shms.clear()


class _Pool:
    """One worker count's process pool and its shared-memory sessions.

    Lives in the module registry (:func:`_pool_for`) for the life of the
    process and is shared by every runner with that worker count.  Every
    use holds :attr:`lock`.  Each worker talks to the main process over
    its own pipe: no queue feeder threads.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.lock = threading.Lock()
        self.procs: list = []
        self.conns: list = []
        self.sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self.last_run = 0.0

    @property
    def started(self) -> bool:
        return bool(self.procs)

    def healthy(self) -> bool:
        return bool(self.procs) and all(p.is_alive() for p in self.procs)

    def start(self) -> None:
        ctx = mp.get_context(_START_METHOD)
        with _IDLE.paused():
            for wid in range(self.workers):
                ours, theirs = ctx.Pipe()
                p = ctx.Process(
                    target=_worker_main,
                    args=(wid, theirs),
                    name=f"repro-multiproc-{wid}",
                    daemon=True,
                )
                p.start()
                # Only the worker holds its end now: its death reads as
                # EOF here.
                theirs.close()
                self.conns.append(ours)
                self.procs.append(p)

    def shutdown(self) -> None:
        """Release every shared segment, then stop the workers.  The
        next :meth:`start` begins afresh.

        Unlinking first (the workers' mappings outlive the names) means a
        worker that has exited proves the segments are gone too: a caller
        that waits for the children, then stops the resource tracker,
        finds nothing left to clean up."""
        for sess in self.sessions.values():
            sess.destroy()
        self.sessions.clear()
        for conn in self.conns:
            try:
                conn.send(("exit",))
            except OSError:  # a dead worker's pipe
                pass
        for p in self.procs:
            p.join(timeout=2.0)
            if p.is_alive():  # pragma: no cover - wedged worker
                p.terminate()
                p.join(timeout=2.0)
        for conn in self.conns:
            conn.close()
        self.procs, self.conns = [], []

    def broadcast(self, msg: tuple) -> None:
        try:
            for conn in self.conns:
                conn.send(msg)
        except OSError:  # a worker died mid-run: its pipe is broken
            self.shutdown()
            raise ReproError(
                f"multiproc worker died before the {msg[0]} task; pool "
                f"shut down"
            ) from None

    def collect(self, phase: str, timeout: float) -> list:
        """One reply per worker.  A worker error is re-raised once every
        reply is in; a dead or silent pool is shut down and reported."""
        payloads: list = [None] * self.workers
        first_err: BaseException | None = None
        pending = dict(zip(self.conns, range(self.workers)))
        deadline = time.monotonic() + timeout
        while pending:
            ready = connection.wait(list(pending), timeout=_POLL_SECONDS)
            if not ready and (
                time.monotonic() > deadline or not self.healthy()
            ):
                self.shutdown()
                raise ReproError(
                    f"multiproc worker pool unresponsive during {phase} "
                    f"phase; pool shut down"
                )
            for conn in ready:
                wid = pending.pop(conn)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    self.shutdown()
                    raise ReproError(
                        f"multiproc worker {wid} died during {phase} "
                        f"phase; pool shut down"
                    ) from None
                if kind == "err":
                    if first_err is None:
                        first_err = payload
                else:
                    payloads[wid] = payload
        if first_err is not None:
            raise first_err
        return payloads

    def session(
        self, loop: IrregularLoop, key: str, max_sessions: int, timeout: float
    ) -> _Session:
        sess = self.sessions.get(key)
        if sess is not None:
            self.sessions.move_to_end(key)
            return sess
        while len(self.sessions) >= max_sessions:
            _, old = self.sessions.popitem(last=False)
            try:
                self.broadcast(("forget", old.key))
                self.collect("forget", timeout)
            finally:
                old.destroy()
        sess = _Session(key, loop)
        try:
            self.broadcast(("attach", key, sess.meta()))
            self.collect("attach", timeout)
        except BaseException:
            sess.destroy()
            raise
        self.sessions[key] = sess
        return sess


class _IdleCloser:
    """The one timer thread that closes pools idle for
    :data:`IDLE_CLOSE_SECONDS`.

    Never alive while a pool forks (Python 3.12 warns on fork with
    threads): :meth:`paused` stops it first, and it is re-armed by the
    run that forked.  It only ever *tries* a pool's lock, so it can
    neither close a pool under a run nor deadlock with one; a busy pool
    re-arms it when its run ends.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.timer: threading.Timer | None = None
        self.paused_count = 0

    def arm(self, delay: float) -> None:
        with self.lock:
            if self.timer is not None or self.paused_count:
                return
            self.timer = threading.Timer(delay, self._fire)
            self.timer.daemon = True
            self.timer.start()

    def _fire(self) -> None:
        with self.lock:
            if self.timer is threading.current_thread():
                self.timer = None
        soonest = None
        now = time.monotonic()
        for pool in list(_POOLS.values()):
            if not pool.lock.acquire(blocking=False):
                continue
            try:
                if pool.started:
                    left = pool.last_run + IDLE_CLOSE_SECONDS - now
                    if left <= 0:
                        pool.shutdown()
                    else:
                        soonest = left if soonest is None else min(soonest, left)
            finally:
                pool.lock.release()
        if soonest is not None:
            self.arm(soonest)

    @contextmanager
    def paused(self):
        with self.lock:
            self.paused_count += 1
            timer, self.timer = self.timer, None
        try:
            if timer is not None:
                timer.cancel()
                timer.join()
            yield
        finally:
            with self.lock:
                self.paused_count -= 1


_POOLS: dict[int, _Pool] = {}
_REGISTRY_LOCK = threading.Lock()
_IDLE = _IdleCloser()
#: Registries inherited by forked children, kept referenced: a child
#: must neither use nor finalize its parent's pools and segments.
_INHERITED: list = []


def _pool_for(workers: int) -> _Pool:
    with _REGISTRY_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = _Pool(workers)
        return pool


def _forget_pools() -> None:
    """After ``fork``, in the child: start with no pools of its own."""
    global _POOLS, _REGISTRY_LOCK, _IDLE
    _INHERITED.append(_POOLS)
    _POOLS = {}
    _REGISTRY_LOCK = threading.Lock()
    _IDLE = _IdleCloser()


def _close_all() -> None:
    """At interpreter exit: stop every pool and unlink its segments."""
    for pool in list(_POOLS.values()):
        locked = pool.lock.acquire(timeout=5.0)
        try:
            pool.shutdown()
        finally:
            if locked:
                pool.lock.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)
atexit.register(_close_all)


class MultiprocRunner(Runner):
    """Runs the preprocessed doacross on the process-wide worker pool
    over shared memory (see the module docstring for the protocol).

    Parameters
    ----------
    workers:
        Pool size; also the reported processor count.  Runners with the
        same count share one pool.
    chunk:
        Default strip-mine chunk size (§2.3); ``None`` picks
        ``ceil(n / (4 * workers))`` per run, and the per-run ``chunk``
        option overrides both.
    cache:
        Optional :class:`~repro.backends.cache.InspectorCache`.  It
        serves the in-chunk order of natural-order runs (and the
        structure that validates a caller's order), and with it ``iter``
        is prefilled in closed form, skipping the workers' inspector
        phase.  ``result.extras["cache_hit"]`` reports the order entry's
        lookup (the structure entry's, for a caller's order).
    analyze:
        ``"symbolic"``: when the symbolic engine proves the write
        subscript injective, ``iter`` is prefilled in closed form and the
        inspector phase is skipped; ``"symbolic+check"`` additionally
        cross-checks the verdict against the runtime inspector
        (:class:`~repro.errors.ProofError` on divergence).
    ladder:
        The :class:`~repro.backends.waitladder.WaitLadder` bounding every
        cross-chunk busy-wait.
    max_sessions:
        Shared-memory arenas kept alive in the pool (LRU per loop
        structure), enforced on this runner's runs.

    :meth:`close` closes the shared pool now and unlinks its segments;
    the next run on any runner starts it again.
    """

    name = "multiproc"

    def __init__(
        self,
        workers: int = 4,
        *,
        chunk: int | None = None,
        cache: InspectorCache | None = None,
        analyze: str | None = None,
        ladder: WaitLadder | None = None,
        max_sessions: int = 8,
    ):
        from repro.backends.vectorized import ANALYZE_MODES

        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if chunk is not None and chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if analyze not in ANALYZE_MODES:
            raise ValueError(
                f"unknown analyze mode {analyze!r}; expected one of "
                f"{ANALYZE_MODES}"
            )
        if max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        self.workers = workers
        self.chunk = chunk
        self.cache = cache
        self.analyze = analyze
        self.ladder = ladder if ladder is not None else DEFAULT_LADDER
        self.max_sessions = max_sessions
        self.start_method = _START_METHOD

    def close(self) -> None:
        """Stop this worker count's pool and unlink its shared segments.
        Safe to call repeatedly; the next :meth:`run` starts it again."""
        pool = _POOLS.get(self.workers)
        if pool is not None:
            with pool.lock:
                pool.shutdown()

    # -- the run -------------------------------------------------------
    def run(
        self,
        loop: IrregularLoop,
        *,
        order: np.ndarray | None = None,
        schedule=None,
        chunk: int | None = None,
        trace: bool = False,
        fingerprint: str | None = None,
        structure: LoopStructure | None = None,
    ) -> RunResult:
        """Execute ``loop`` on the process pool; see the module docstring.

        ``chunk`` sets the strip-mine chunk size.  ``order`` is run
        exactly as given (after validation); without it the run executes
        the in-chunk order.  ``schedule`` is ignored (iteration
        assignment is always chunked round-robin — the deadlock-freedom
        precondition); ``trace`` is ignored (no simulated timeline; use
        ``observe=True`` for wall-clock spans).  Both are recorded in
        ``result.extras["ignored_options"]`` when passed.
        ``fingerprint`` is the loop's digest when the caller already has
        it; it keys both the inspector cache and the shared-memory
        session.  ``structure`` is the loop's analysis when the caller
        holds one and the runner has no cache (plan execution hands its
        own down), so the run does not analyze the loop again.
        """
        if fingerprint is None:
            fingerprint = loop_fingerprint(loop)
        graph = structure.graph if structure is not None else None
        hit = False
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            if self.cache is not None:
                cached, hit = self.cache.structure(loop, fingerprint)
                graph = cached.graph
            if graph is None:
                validate_execution_order(loop, order)
            else:
                validate_execution_order(loop, order, graph)

        t0 = time.perf_counter()
        verdict = None
        elide = False
        if self.analyze is not None:
            from repro.analysis import analyze_loop

            verdict = analyze_loop(loop)
            elide = verdict.write_injective
            if self.analyze == "symbolic+check":
                from repro.analysis import cross_check

                cross_check(loop, verdict, strict=True)

        n = loop.n
        c_size = chunk if chunk is not None else self.chunk
        if c_size is None:
            c_size = max(1, -(-n // (4 * self.workers)))
        c_size = int(c_size)
        # Natural order runs doconsider inside each strip.
        order_key = ("in-chunk", c_size) if order is None else None
        if order_key is not None and self.cache is not None:
            order, hit = self.cache.chunk_order(loop, c_size, fingerprint)

        pool = _pool_for(self.workers)
        with pool.lock:
            try:
                if not pool.healthy():
                    if pool.started:  # a worker died since the last run
                        pool.shutdown()
                    pool.start()
                result = self._run_on(
                    pool, loop, fingerprint, order, order_key, graph,
                    c_size, elide, hit,
                )
            finally:
                pool.last_run = time.monotonic()
                _IDLE.arm(IDLE_CLOSE_SECONDS)
        wall = time.perf_counter() - t0

        cm = CostModel()
        out = RunResult(
            loop_name=loop.name,
            strategy="multiproc-doacross",
            processors=self.workers,
            y=result["y"],
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=f"chunked({c_size} x {self.workers} workers)",
            wall_seconds=wall,
        )
        out.extras["chunk"] = c_size
        out.extras["workers"] = self.workers
        out.extras["start_method"] = self.start_method
        out.extras["exec_order"] = "in-chunk" if order_key else "given"
        group = result["group"]
        if group is not None:
            out.extras["distance_group"] = int(group)
        met = self._obs_metrics
        if self.cache is not None:
            stats = self.cache.stats()
            out.extras["cache_hit"] = hit
            out.extras["cache_hits_total"] = stats["hits"]
            out.extras["cache_misses_total"] = stats["misses"]
        if self.analyze is not None:
            out.extras["analyze"] = self.analyze
            out.extras["inspector_elided"] = elide
            if verdict is not None:
                out.extras["verdict"] = verdict.kind
                if verdict.distance is not None:
                    out.extras["verdict_distance"] = int(verdict.distance)
        if met is not None:
            met.gauge("workers", self.workers)
            met.gauge("chunk", c_size)
            if result["prefilled"]:
                met.count("inspector_iterations", 0)
            if self.cache is not None:
                met.count("inspector_cache_hits", 1 if hit else 0)
                met.count("inspector_cache_misses", 0 if hit else 1)
            if self.analyze is not None:
                met.count("inspector_elisions", 1 if elide else 0)

        ignored = {}
        if schedule is not None:
            ignored["schedule"] = (
                schedule,
                "the multiproc backend always assigns contiguous chunks "
                "round-robin (deadlock-freedom precondition, DESIGN.md "
                "§6); use chunk= to size the strips",
            )
        if trace:
            ignored["trace"] = (
                True,
                "no simulated timeline exists on real processes; use "
                "observe=True for wall-clock spans",
            )
        note_ignored_options(out, self.name, **ignored)
        return out

    def _run_on(
        self, pool: _Pool, loop: IrregularLoop, fingerprint: str,
        order: np.ndarray | None, order_key: tuple | None,
        graph: DependenceGraph | None, c_size: int, elide: bool, hit: bool,
    ) -> dict:
        """The three phases on ``pool`` (its lock held)."""
        timeout = self.ladder.timeout + 60.0
        sess = pool.session(loop, fingerprint, self.max_sessions, timeout)
        rec = self._obs_recorder
        met = self._obs_metrics
        n = loop.n

        if sess.dirty:
            # A previous run died mid-protocol (WaitTimeout): the normal
            # postprocess reset never ran, so scrub the scratch wholesale.
            sess.views["iter"][:] = MAXINT
            sess.views["ready"][:] = 0
        sess.dirty = True

        # Per-run values into shared memory (structure is already there).
        sess.views["y"][:] = loop.y0
        if sess.terms:
            sess.views["coeff"][:] = loop.reads.coeff
        external = loop.init_kind == INIT_EXTERNAL
        if external:
            sess.views["init"][:] = loop.init_values
        if order_key is None or sess.order_key != order_key:
            if order is None:
                # No cache: the session's block is the only copy kept.
                if graph is None:
                    graph = DependenceGraph.from_loop(loop)
                order = in_chunk_order(graph, c_size)
            sess.views["order"][:] = order
            sess.order_key = order_key

        san = self._san_capture
        opts = {
            "chunk": c_size,
            "workers": self.workers,
            "order_key": order_key,
            "external": external,
            "observe": rec is not None,
            "ladder": self.ladder,
            "sanitize": san is not None,
        }

        # Phase 1: inspector — prefilled when the structure is cached or
        # the symbolic proof holds (both give the canonical iter
        # contents), else parallel.
        prefilled = self.cache is not None or elide
        if prefilled:
            t_ins = time.perf_counter()
            sess.views["iter"][loop.write] = np.arange(n, dtype=np.int64)
            if rec is not None:
                rec.record(
                    "inspector", CAT_PHASE, t_ins, rec.now(), lane=0,
                    cache_hit=bool(hit), elided=elide,
                )
        else:
            pool.broadcast(("inspector", sess.key, opts))
            self._apply(pool.collect("inspector", timeout), rec, met)

        # Group-synchronous elision (DistancePass): natural order only,
        # and the group must be a chunk-aligned multiple so the global
        # chunk -> worker deal restricts cleanly to each group window.
        group = self._group_sync if order_key is not None else None
        if group is not None and (group < c_size or group % c_size):
            group = None

        # Phase 2: the executor — one flag-protocol pass, or one round
        # per distance group (the collect between rounds is the group
        # barrier).  On WaitTimeout the session stays dirty and is
        # scrubbed on the next run; the pool itself survives.
        if group is None:
            rounds = [opts]
        else:
            n_groups = -(-n // group) if n else 0
            rounds = [
                dict(opts, glo=gk * group, ghi=min(n, (gk + 1) * group),
                     round=gk)
                for gk in range(n_groups)
            ]
        for round_opts in rounds:
            pool.broadcast(("executor", sess.key, round_opts))
            payloads = pool.collect("executor", timeout)
            self._apply(payloads, rec, met)
            if san is not None:
                timeout_exc: WaitTimeout | None = None
                for payload in payloads:
                    if payload is None:
                        continue
                    blob = payload.get("sanitize")
                    if blob is not None:
                        san.ingest(
                            payload["wid"], blob["events"], pid=blob["pid"]
                        )
                    if timeout_exc is None:
                        timeout_exc = payload.get("wait_timeout")
                if timeout_exc is not None:
                    # Same contract as the unsanitized "err" path: the
                    # post phase never runs, the session stays dirty and
                    # is scrubbed wholesale by the next run.
                    raise timeout_exc
        if group is not None and met is not None:
            met.count("group_barriers", len(rounds))

        # Phase 3: postprocess/reset — scratch reusable afterwards.
        pool.broadcast(("post", sess.key, opts))
        self._apply(pool.collect("post", timeout), rec, met)
        sess.dirty = False
        return {
            "y": sess.views["y"].copy(),
            "group": group,
            "prefilled": prefilled,
        }

    @staticmethod
    def _apply(payloads: list, rec, met) -> None:
        """Merge worker phase payloads into the session telemetry."""
        for payload in payloads:
            if payload is None:
                continue
            if met is not None:
                for name, value in payload["metrics"].items():
                    met.count(name, value)
            if rec is not None:
                for name, cat, s0, s1, attrs in payload.get("spans", ()):
                    rec.record(
                        name, cat, s0, s1, lane=payload["wid"], **attrs
                    )
