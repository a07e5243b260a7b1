"""The forked run of a sweep's instances, for --workers > 1.

Before any worker starts, the parent fills one claim pipe with tokens,
each the index of a chunk of consecutive instances, as _TOKEN little-endian
bytes; _MAX_TOKENS of them fill one page, which a pipe always holds, so the
fill cannot block.  The parent and its workers - 1 forked children each
read a token whenever they are free, run that chunk and read the next,
until the drained pipe reads as EOF: the costliest instances (the largest
n) come last, and a static split would leave one process idle while
another runs them.  A child sends back what it ran in one message, over a
pipe of its own, once it has nothing left to claim.  The remainder-tree
instance of a verify run, if it has one, comes first, so one process
starts it at once while the others share out the q-instances.  sweep
imports this module only for a run it forks: more than one worker and more
than one instance, and estimated serial work at or above
sweep._FORK_FLOOR, about five times the 20 ms of CPU a fork costs.  Any
other run, whatever --workers asks, is the serial run and never compiles
this module.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

from . import sweep
from .records import InternalError, VerificationRecord

_TOKEN = 2
_MAX_TOKENS = 4096 // _TOKEN


class _WorkerTraceback(Exception):
    """The traceback of an error in a forked worker, shown as the cause of
    the InternalError the parent raises for it."""


def _claimed(claims: int, chunk: int, n: int, parent: int | None = None):
    # the indices of the instances this process claims, chunk by chunk.  A
    # child passes the pid it was forked from as parent, and exits before a
    # claim once that is no longer its parent: a parent SIGKILLed mid-run
    # runs no handler that could end its children
    while True:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        if not (token := os.read(claims, _TOKEN)):
            return
        start = int.from_bytes(token, "little") * chunk
        yield from range(start, min(start + chunk, n))


def _child(k: int, parent: int, claims: int, out: int, others: list[int],
           insts: list[sweep.Instance], chunk: int, mask: set):
    # runs in forked worker k of the process parent and leaves through
    # os._exit, so it never returns into the parent's code, flushes the
    # parent's buffers or runs its exit hooks; others are the result pipes
    # it inherited and closes, mask the signal mask the parent had before
    # it forked.
    # It sends one message, once its claims have run dry or at its first
    # error: the pickle of [(index, result), ...] before exit code 0, or of
    # (message, traceback) before exit code 1
    code = 1
    try:
        # a handler the parent installed (cli.main's) is not the child's
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in others:
            os.close(fd)
        try:
            message = pickle.dumps([(i, sweep._execute(insts[i]))
                                    for i in _claimed(claims, chunk, len(insts), parent)])
            status = 0
        except BaseException as exc:  # whatever it is, the parent reports it
            import traceback  # only an error pays for the import

            msg = str(exc) if isinstance(exc, InternalError) else (
                f"internal error in worker {k}: {type(exc).__name__}: {exc}")
            message, status = pickle.dumps((msg, traceback.format_exc())), 1
        data = memoryview(message)
        while data:
            data = data[os.write(out, data):]
        code = status
    finally:
        os._exit(code)


def _run_forked(insts: list[sweep.Instance], workers: int) -> list[VerificationRecord]:
    """The records of insts, run by this process and workers - 1 forked
    children.  A child sends its results in one message, once it has no
    instance left to claim, so a full result pipe never stalls its work.
    Between its own instances the parent collects every child that has
    finished, reading its message to EOF and reaping it, so a child's
    error stops the run at the parent's next instance boundary.  Any
    error, here or in a child, kills and reaps every child that is still
    alive; a child that exits with neither its results nor its error is an
    InternalError, so its claimed instances never go missing silently.
    A fork copies only the calling thread, so a caller must start no
    threads of its own first (Python 3.12+ warns of them); the CLI starts
    none."""
    n = len(insts)
    chunk = -(-n // _MAX_TOKENS)
    claims, fill = os.pipe()
    try:
        os.write(fill, b"".join(
            k.to_bytes(_TOKEN, "little") for k in range(-(-n // chunk))))
    finally:
        os.close(fill)
    results: list[list[VerificationRecord] | None] = [None] * n

    def store(i: int, result) -> None:
        if results[i] is not None:
            raise InternalError(f"internal error: {insts[i]} ran twice")
        results[i] = sweep._records([result])

    def collect(timeout: float | None) -> None:
        # every child whose pipe is readable has written its message, or
        # died: read to EOF, reap it, then store its results or raise
        ready, _, _ = select.select(list(live), [], [], timeout)
        for fd in ready:
            message = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            k, pid = live.pop(fd)
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if message and code == 0:
                for i, result in pickle.loads(message):
                    store(i, result)
            elif message and code == 1:
                msg, tb = pickle.loads(message)
                raise InternalError(msg) from _WorkerTraceback(tb)
            else:
                how = (f"killed by {signal.Signals(-code).name}" if code < 0
                       else f"exit code {code}")
                raise InternalError(f"internal error: worker {k} (pid {pid}) "
                                    f"ended before its last instance: {how}")

    live: dict[int, tuple[int, int | None]] = {}  # result pipe read end -> (k, pid)
    parent = os.getpid()
    # SIGINT and SIGTERM wait until every child's pid is recorded: a handler
    # that raised between a fork and its pid would leave that child running
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    try:
        for k in range(1, workers):
            r, out = os.pipe()
            live[r] = k, None
            try:
                if (pid := os.fork()) == 0:
                    _child(k, parent, claims, out, list(live), insts, chunk, mask)
                live[r] = k, pid
            finally:
                # the child's write end is held by that child alone, or
                # its exit would not read as EOF here
                os.close(out)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i in _claimed(claims, chunk, n):
            store(i, sweep._execute(insts[i]))
            collect(0)
        while live:
            collect(None)
    finally:
        os.close(claims)
        for fd, (_, pid) in live.items():
            os.close(fd)
            if pid is not None:  # not yet reaped, so the pid is ours
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    missing = [str(inst) for inst, rs in zip(insts, results) if rs is None]
    if missing:
        raise InternalError(f"internal error: no result for {', '.join(missing)}")
    return [r for rs in results for r in rs]
