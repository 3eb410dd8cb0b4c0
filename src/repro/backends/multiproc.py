"""Shared-memory multiprocessing backend: the doacross protocol across
real OS processes.

The threaded backend proves the paper's protocol correct under the GIL;
this backend removes the GIL from the picture.  A persistent pool of
worker *processes* executes the three phases of the preprocessed doacross
(§2.2–2.3) against ``multiprocessing.shared_memory`` segments that play
the paper's shared arrays directly:

- ``iter``  — writer iteration per ``y`` element (``MAXINT`` = unwritten),
- ``ready`` — one byte per element, the Figure-5 busy-wait flags,
- ``ynew``  — the renamed write targets (antidependence removal),
- ``y``     — the live values, updated by the postprocessor.

Iterations are strip-mined into contiguous *chunks* of ``chunk``
positions (§2.3), dealt round-robin to workers; each worker executes its
chunks in increasing order, so every cross-chunk true dependence points
to a strictly earlier chunk and the busy-wait protocol is deadlock-free
by the same induction as the cyclic threaded schedule (DESIGN.md §6).
Within a chunk the worker precomputes a per-term classification from the
shared ``iter`` array (old-``y`` read / same-chunk ``ynew`` read /
cross-chunk wait / intra-iteration accumulator) — the Figure-5 compare
hoisted out of the inner loop and, for natural-order runs, cached across
loop instances per dependence structure.

Every blocking cross-chunk wait is bounded by a
:class:`~repro.backends.waitladder.WaitLadder` (spin, then escalating
sleep, then :class:`~repro.errors.WaitTimeout`), so a corrupted schedule
diagnoses itself instead of hanging the pool; after a timeout the scratch
arrays are marked dirty and fully re-reset before the next run, keeping
the pool and its shared segments reusable.

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

import multiprocessing as mp
import os
import queue as queue_mod
import time
import weakref
from collections import OrderedDict

import numpy as np
from multiprocessing import shared_memory

from repro.backends.base import (
    Runner,
    note_ignored_options,
    validate_execution_order,
)
from repro.backends.cache import InspectorCache, loop_fingerprint
from repro.backends.layout import chunk_term_codes
from repro.backends.waitladder import DEFAULT_LADDER, WaitLadder
from repro.core.results import RunResult
from repro.core.sequential import sequential_time
from repro.core.workspace import MAXINT
from repro.errors import ReproError, WaitTimeout
from repro.ir.loop import INIT_EXTERNAL, IrregularLoop
from repro.machine.costs import CostModel
from repro.obs.spans import CAT_COMPUTE, CAT_PHASE, CAT_WAIT

__all__ = ["MultiprocRunner"]

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


def _block_len(dim: str, n: int, y_size: int, terms: int) -> int:
    return {"n": n, "n1": n + 1, "terms": terms, "y": y_size}[dim]


def _chunk_ranges(n: int, chunk: int, workers: int, wid: int):
    """Worker ``wid``'s chunks: contiguous ``chunk``-sized position ranges
    dealt round-robin, visited in increasing order (deadlock freedom)."""
    n_chunks = -(-n // chunk) if n else 0
    for c in range(wid, n_chunks, workers):
        lo = c * chunk
        yield lo, min(n, lo + chunk)


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
    """Attach one session's shared blocks and build the numpy views."""
    n, y_size, terms = meta["n"], meta["y_size"], meta["terms"]
    shms, views = [], {}
    for field, dtype, dim in _BLOCKS:
        shm = shared_memory.SharedMemory(name=meta["names"][field])
        shms.append(shm)
        count = _block_len(dim, n, y_size, terms)
        views[field] = np.ndarray((count,), dtype=dtype, buffer=shm.buf)
    return {
        "shms": shms,
        "views": views,
        "n": n,
        "y_size": y_size,
        "counts": np.diff(views["ptr"]),
        "codes": {},
    }


def _code_natural(sess: dict, lo: int, hi: int) -> np.ndarray:
    """Per-term executor classification for natural-order chunk
    ``[lo, hi)``: 0 = read old ``y`` (anti/unwritten), 1 = read ``ynew``
    written earlier in this same chunk (no flag needed — this worker wrote
    it), 2 = cross-chunk true dependence (ladder wait on ``ready``),
    3 = intra-iteration (live accumulator).  Depends only on the loop's
    structure, so callers cache it per (structure, chunking)."""
    v = sess["views"]
    return chunk_term_codes(v["ptr"], v["index"], v["iter"], lo, hi)


def _code_ordered(
    sess: dict, lo: int, hi: int, pos: np.ndarray
) -> np.ndarray:
    """Classification for position chunk ``[lo, hi)`` under a doconsider
    order: the Figure-5 compare is still on iteration numbers, but "no
    flag needed" now means the writer's *position* falls earlier in this
    same chunk.  Terms appear in execution order (flat reads of
    ``order[lo]``, then ``order[lo+1]``, ...)."""
    v = sess["views"]
    ptr, index, it = v["ptr"], v["index"], v["iter"]
    its = v["order"][lo:hi]
    cnt = sess["counts"][its]
    total = int(cnt.sum())
    code = np.zeros(total, dtype=np.int8)
    if not total:
        return code
    shift = np.zeros(len(cnt), dtype=np.int64)
    shift[1:] = np.cumsum(cnt)[:-1]
    offs = np.repeat(ptr[its] - shift, cnt) + np.arange(
        total, dtype=np.int64
    )
    writers = it[index[offs]]
    readers_iter = np.repeat(its, cnt)
    readers_pos = np.repeat(np.arange(lo, hi, dtype=np.int64), cnt)
    code[writers == readers_iter] = 3
    true_dep = writers < readers_iter
    td = np.nonzero(true_dep)[0]
    if len(td):
        wpos = pos[writers[td]]
        in_chunk = (wpos >= lo) & (wpos < readers_pos[td])
        code[td[in_chunk]] = 1
        code[td[~in_chunk]] = 2
    return code


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
    """Phase 2: the Figure-5 executor over this worker's chunks, with the
    per-term compare precomputed into a classification code and every
    blocking wait bounded by the ladder."""
    v = sess["views"]
    write, ptr, index = v["write"], v["ptr"], v["index"]
    coeff, init = v["coeff"], v["init"]
    y, ynew, ready = v["y"], v["ynew"], v["ready"]
    n = sess["n"]
    chunk, workers = opts["chunk"], opts["workers"]
    has_order, external = opts["has_order"], opts["external"]
    observe, ladder = opts["observe"], opts["ladder"]
    sanitize = opts.get("sanitize", False)
    events: list | None = [] if sanitize else None
    timed_out: WaitTimeout | None = None
    pid = os.getpid()

    if has_order:
        order = v["order"]
        pos = np.empty(n, dtype=np.int64)
        pos[order[:n]] = np.arange(n, dtype=np.int64)

    flag_checks = flag_sets = busy_waits = iterations = 0
    wait_escalations = 0
    wait_seconds = 0.0
    spans: list = []
    if observe:
        t_phase = time.perf_counter()
        seg_start = t_phase

    try:
        for lo, hi in _chunk_ranges(n, chunk, workers, wid):
            if has_order:
                code = _code_ordered(sess, lo, hi, pos)
            else:
                key = (chunk, workers, lo)
                code = sess["codes"].get(key)
                if code is None:
                    code = sess["codes"][key] = _code_natural(sess, lo, hi)
            cur = 0
            for p in range(lo, hi):
                i = int(order[p]) if has_order else p
                w = write[i]
                acc = init[i] if external else y[w]
                for k in range(ptr[i], ptr[i + 1]):
                    c = code[cur]
                    cur += 1
                    idx = index[k]
                    if c == 0:
                        if events is not None:
                            events.append(("r", i, int(idx), 0))
                        value = y[idx]
                    elif c == 3:
                        value = acc
                    elif c == 1:
                        # Same-chunk renamed read: this worker wrote it
                        # earlier, so program order is the hb edge.
                        if events is not None:
                            events.append(("r", i, int(idx), 1))
                        value = ynew[idx]
                    else:
                        flag_checks += 1
                        if events is not None:
                            # Log the acquire *before* blocking: the
                            # per-chunk order is unchanged on success,
                            # and a timed-out ladder leaves the
                            # unsatisfied acquire in the shadow log for
                            # the sanitizer to name.
                            events.append(("a", int(idx)))
                        if ready[idx]:
                            value = ynew[idx]
                        else:
                            busy_waits += 1
                            element = int(idx)
                            if observe:
                                # Blocking wait: close the running compute
                                # span, record the wait (threaded-backend
                                # tiling invariant, same span vocabulary).
                                w0 = time.perf_counter()
                                spans.append(
                                    ("compute", CAT_COMPUTE, seg_start, w0,
                                     {"pid": pid})
                                )
                                slept = ladder.wait(
                                    lambda: ready[idx], element=element
                                )
                                w1 = time.perf_counter()
                                spans.append(
                                    ("wait", CAT_WAIT, w0, w1,
                                     {"pid": pid, "element": element})
                                )
                                wait_seconds += w1 - w0
                                seg_start = w1
                            else:
                                slept = ladder.wait(
                                    lambda: ready[idx], element=element
                                )
                                wait_seconds += slept
                            if slept > 0:
                                # Past the spin rung: this stall was long
                                # enough to sleep on (the doctor's
                                # wait-escalation evidence).
                                wait_escalations += 1
                            value = ynew[idx]
                        if events is not None:
                            events.append(("r", i, int(idx), 1))
                    acc += coeff[k] * value
                ynew[w] = acc
                ready[w] = 1
                if events is not None:
                    events.append(("w", i, int(w)))
                    events.append(("p", int(w)))
                flag_sets += 1
            iterations += hi - lo
    except WaitTimeout as exc:
        if events is None:
            raise
        # Sanitizing: ship the partial shadow log home with the timeout
        # riding in the payload — the "err" path would discard the log,
        # and the log usually explains the hang better than the timeout.
        timed_out = exc

    payload: dict = {
        "wid": wid,
        "metrics": {
            "flag_checks": flag_checks,
            "flag_sets": flag_sets,
            "busy_waits": busy_waits,
            "wait_escalations": wait_escalations,
            "wait_seconds": wait_seconds,
            "iterations": iterations,
        },
    }
    if observe:
        t_end = time.perf_counter()
        spans.append(("compute", CAT_COMPUTE, seg_start, t_end, {"pid": pid}))
        spans.append(("executor", CAT_PHASE, t_phase, t_end, {"pid": pid}))
        payload["spans"] = spans
    if events is not None:
        payload["sanitize"] = {"pid": pid, "events": events}
        if timed_out is not None:
            payload["wait_timeout"] = timed_out
    return payload


def _task_gexec(sess: dict, opts: dict, wid: int) -> dict:
    """One *group round* of the group-synchronous executor.

    ``opts["glo"]:opts["ghi"]`` is one distance group: the DistancePass
    proved every cross-iteration true dependence reaches into a strictly
    earlier group (the group size is a chunk-aligned floor of the proven
    ``min_distance``), and the coordinator collects every worker between
    rounds, so all renamed reads here are already written — the per-term
    classification codes are reused, but code 2 (cross-chunk true
    dependence) becomes a direct ``ynew`` read with **no flag check** and
    no flag is ever set.  The coordinator's collect *is* the barrier;
    the shadow log records it as one ``("g", round)`` barrier generation
    per worker so the sanitizer can witness the same ordering.
    """
    v = sess["views"]
    write, ptr, index = v["write"], v["ptr"], v["index"]
    coeff, init = v["coeff"], v["init"]
    y, ynew = v["y"], v["ynew"]
    glo, ghi = opts["glo"], opts["ghi"]
    chunk, workers = opts["chunk"], opts["workers"]
    external, observe = opts["external"], opts["observe"]
    events: list | None = [] if opts.get("sanitize") else None
    pid = os.getpid()
    if observe:
        t0 = time.perf_counter()

    elided_waits = iterations = 0
    # The group is chunk-aligned, so the global chunk -> worker deal
    # (chunk c belongs to worker c % workers) restricts cleanly.
    for c in range(glo // chunk, -(-ghi // chunk)):
        if c % workers != wid:
            continue
        lo = c * chunk
        hi = min(ghi, lo + chunk)
        key = (chunk, workers, lo)
        code = sess["codes"].get(key)
        if code is None:
            code = sess["codes"][key] = _code_natural(sess, lo, hi)
        cur = 0
        for i in range(lo, hi):
            w = write[i]
            acc = init[i] if external else y[w]
            for k in range(ptr[i], ptr[i + 1]):
                cd = code[cur]
                cur += 1
                idx = index[k]
                if cd == 0:
                    if events is not None:
                        events.append(("r", i, int(idx), 0))
                    value = y[idx]
                elif cd == 3:
                    value = acc
                else:
                    # Renamed read: same-chunk program order (code 1) or
                    # a strictly earlier group (code 2, the elided wait).
                    if cd == 2:
                        elided_waits += 1
                    if events is not None:
                        events.append(("r", i, int(idx), 1))
                    value = ynew[idx]
                acc += coeff[k] * value
            ynew[w] = acc
            # Elided post: ready[w] is never written in group mode.
            if events is not None:
                events.append(("w", i, int(w)))
        iterations += hi - lo

    payload: dict = {
        "wid": wid,
        "metrics": {
            "flag_checks": 0,
            "flag_sets": 0,
            "busy_waits": 0,
            "wait_seconds": 0.0,
            "iterations": iterations,
            "sync_elisions": iterations + elided_waits,
        },
    }
    if observe:
        payload["spans"] = [
            (
                "executor",
                CAT_PHASE,
                t0,
                time.perf_counter(),
                {"pid": pid, "group_round": opts["round"]},
            )
        ]
    if events is not None:
        # Every worker logs the round barrier, share or no share — the
        # sanitizer's replay releases a generation only when *all* lanes
        # arrive.
        events.append(("b", ("g", opts["round"])))
        payload["sanitize"] = {"pid": pid, "events": events}
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
    "gexec": _task_gexec,
    "post": _task_post,
}


def _worker_detach(sess: dict) -> None:
    """Release one attached session: numpy views first (they export the
    mmap's buffer; closing underneath them raises ``BufferError``)."""
    sess["views"].clear()
    sess["codes"].clear()
    sess["counts"] = None
    for shm in sess["shms"]:
        shm.close()


def _worker_main(wid: int, task_q, result_q) -> None:
    """Worker process loop: attach sessions, run phase tasks, reply once
    per task.  Exceptions (including :class:`WaitTimeout`) are shipped
    back as replies — the worker survives them and keeps serving."""
    _mute_shm_tracking()
    sessions: dict[str, dict] = {}
    while True:
        msg = task_q.get()
        kind = msg[0]
        if kind == "exit":
            for sess in sessions.values():
                _worker_detach(sess)
            return
        try:
            if kind == "attach":
                _, key, meta = msg
                sessions[key] = _worker_attach(meta)
                result_q.put(("ok", wid, None))
            elif kind == "forget":
                _, key = msg
                sess = sessions.pop(key, None)
                if sess is not None:
                    _worker_detach(sess)
                result_q.put(("ok", wid, None))
            else:
                _, key, opts = msg
                payload = _TASKS[kind](sessions[key], opts, wid)
                result_q.put(("ok", wid, payload))
        except BaseException as exc:
            result_q.put(("err", wid, exc))


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


def _shutdown_pool(procs, task_qs, sessions) -> None:
    """Finalizer: stop workers, then release every shared segment."""
    for q in task_qs:
        try:
            q.put(("exit",))
        except Exception:  # pragma: no cover - queue already broken
            pass
    for p in procs:
        p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - wedged worker
            p.terminate()
            p.join(timeout=2.0)
    for sess in list(sessions.values()):
        sess.destroy()
    sessions.clear()


class MultiprocRunner(Runner):
    """Runs the preprocessed doacross on a persistent process pool over
    shared memory (see the module docstring for the protocol).

    Parameters
    ----------
    workers:
        Pool size; also the reported processor count.
    chunk:
        Default strip-mine chunk size (§2.3); ``None`` picks
        ``ceil(n / (4 * workers))`` per run, and the per-run ``chunk``
        option overrides both.
    cache:
        Optional :class:`~repro.backends.cache.InspectorCache`; on a hit
        the cached ``iter`` array is copied straight into shared memory
        and the workers' inspector phase is skipped (Figure-3
        amortization across loop instances).
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
        Shared-memory arenas kept alive (LRU per loop structure).

    The pool and its shared segments are released by :meth:`close` (also
    hooked to garbage collection), after which the runner may be used
    again — a fresh pool starts on demand.
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
        methods = mp.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self._finalizer = None

    # -- pool lifecycle ------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _ensure_pool(self) -> None:
        if self._procs:
            return
        ctx = mp.get_context(self.start_method)
        self._result_q = ctx.Queue()
        for wid in range(self.workers):
            q = ctx.Queue()
            p = ctx.Process(
                target=_worker_main,
                args=(wid, q, self._result_q),
                name=f"repro-multiproc-{wid}",
                daemon=True,
            )
            p.start()
            self._task_qs.append(q)
            self._procs.append(p)
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._procs, self._task_qs, self._sessions
        )

    def close(self) -> None:
        """Stop the worker pool and unlink every shared segment.  Safe to
        call repeatedly; the next :meth:`run` starts a fresh pool."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._procs = []
        self._task_qs = []
        self._result_q = None
        self._sessions = OrderedDict()

    def _broadcast(self, msg: tuple) -> None:
        for q in self._task_qs:
            q.put(msg)

    def _collect(self, phase: str) -> list:
        payloads: list = [None] * self.workers
        first_err: BaseException | None = None
        timeout = self.ladder.timeout + 60.0
        for _ in range(self.workers):
            try:
                kind, wid, payload = self._result_q.get(timeout=timeout)
            except queue_mod.Empty:  # pragma: no cover - dead worker
                self.close()
                raise ReproError(
                    f"multiproc worker pool unresponsive during {phase} "
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

    # -- sessions ------------------------------------------------------
    def _session_for(self, loop: IrregularLoop, key: str) -> _Session:
        sess = self._sessions.get(key)
        if sess is not None:
            self._sessions.move_to_end(key)
            return sess
        while len(self._sessions) >= self.max_sessions:
            _, old = self._sessions.popitem(last=False)
            self._broadcast(("forget", old.key))
            self._collect("forget")
            old.destroy()
        sess = _Session(key, loop)
        self._broadcast(("attach", key, sess.meta()))
        self._collect("attach")
        self._sessions[key] = sess
        return sess

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
    ) -> RunResult:
        """Execute ``loop`` on the process pool; see the module docstring.

        ``chunk`` sets the strip-mine chunk size.  ``schedule`` is ignored
        (iteration assignment is always chunked round-robin — the
        deadlock-freedom precondition); ``trace`` is ignored (no simulated
        timeline; use ``observe=True`` for wall-clock spans).  Both are
        recorded in ``result.extras["ignored_options"]`` when passed.
        ``fingerprint`` is the loop's digest when the caller already has
        it; it keys both the inspector cache and the shared-memory session.
        """
        if fingerprint is None:
            fingerprint = loop_fingerprint(loop)
        if order is not None:
            order = np.asarray(order, dtype=np.int64)
            if self.cache is None:
                validate_execution_order(loop, order)
            else:
                structure, _hit = self.cache.structure(loop, fingerprint)
                validate_execution_order(loop, order, structure.graph)

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
        record, hit = None, False
        if self.cache is not None:
            record, hit = self.cache.get_or_build(loop, fingerprint=fingerprint)

        self._ensure_pool()
        sess = self._session_for(loop, fingerprint)
        rec = self._obs_recorder
        met = self._obs_metrics
        observe = rec is not None

        n = loop.n
        c_size = chunk if chunk is not None else self.chunk
        if c_size is None:
            c_size = max(1, -(-n // (4 * self.workers)))
        c_size = int(c_size)

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
        if order is not None:
            sess.views["order"][:] = order

        san = self._san_capture
        opts = {
            "chunk": c_size,
            "workers": self.workers,
            "has_order": order is not None,
            "external": external,
            "observe": observe,
            "ladder": self.ladder,
            "sanitize": san is not None,
        }

        # Phase 1: inspector — prefilled from the cache or the symbolic
        # proof (both yield the canonical iter contents), else parallel.
        prefilled = record is not None or elide
        if prefilled:
            t_ins = time.perf_counter()
            if record is not None:
                sess.views["iter"][:] = record.iter_array
            else:
                sess.views["iter"][loop.write] = np.arange(
                    n, dtype=np.int64
                )
            if rec is not None:
                rec.record(
                    "inspector", CAT_PHASE, t_ins, rec.now(), lane=0,
                    cache_hit=bool(hit), elided=elide,
                )
        else:
            self._broadcast(("inspector", sess.key, opts))
            self._apply(self._collect("inspector"), rec, met)

        # Group-synchronous elision (DistancePass): natural order only,
        # and the group must be a chunk-aligned multiple so the global
        # chunk -> worker deal restricts cleanly to each group window.
        group = self._group_sync if order is None else None
        if group is not None and (group < c_size or group % c_size):
            group = None

        if group is not None:
            # Phase 2 (group mode): one round per distance group; the
            # collect between rounds is the group barrier.  No flags.
            n_groups = -(-n // group) if n else 0
            for gk in range(n_groups):
                gopts = dict(
                    opts,
                    glo=gk * group,
                    ghi=min(n, (gk + 1) * group),
                    round=gk,
                )
                self._broadcast(("gexec", sess.key, gopts))
                payloads = self._collect("gexec")
                self._apply(payloads, rec, met)
                if san is not None:
                    for payload in payloads:
                        if payload is None:
                            continue
                        blob = payload.get("sanitize")
                        if blob is not None:
                            san.ingest(
                                payload["wid"], blob["events"],
                                pid=blob["pid"],
                            )
            if met is not None:
                met.count("group_barriers", n_groups)
        else:
            # Phase 2: executor.  On WaitTimeout the session stays dirty
            # and is scrubbed on the next run; the pool itself survives.
            self._broadcast(("executor", sess.key, opts))
            payloads = self._collect("executor")
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

        # Phase 3: postprocess/reset — scratch reusable afterwards.
        self._broadcast(("post", sess.key, opts))
        self._apply(self._collect("post"), rec, met)
        sess.dirty = False

        y = sess.views["y"].copy()
        wall = time.perf_counter() - t0

        cm = CostModel()
        result = RunResult(
            loop_name=loop.name,
            strategy="multiproc-doacross",
            processors=self.workers,
            y=y,
            total_cycles=0,
            sequential_cycles=sequential_time(loop, cm),
            cost_model=cm,
            schedule=f"chunked({c_size} x {self.workers} workers)",
            wall_seconds=wall,
        )
        result.extras["chunk"] = c_size
        result.extras["workers"] = self.workers
        result.extras["start_method"] = self.start_method
        if group is not None:
            result.extras["distance_group"] = int(group)
        if self.cache is not None:
            stats = self.cache.stats()
            result.extras["cache_hit"] = hit
            result.extras["cache_hits_total"] = stats["hits"]
            result.extras["cache_misses_total"] = stats["misses"]
        if self.analyze is not None:
            result.extras["analyze"] = self.analyze
            result.extras["inspector_elided"] = elide
            if verdict is not None:
                result.extras["verdict"] = verdict.kind
                if verdict.distance is not None:
                    result.extras["verdict_distance"] = int(verdict.distance)
        if met is not None:
            met.gauge("workers", self.workers)
            met.gauge("chunk", c_size)
            if prefilled:
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
        note_ignored_options(result, self.name, **ignored)
        return result

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
