"""Worker processes that run a sweep's chunks, one BLAS thread each.

harness.sweep hands its chunks here when it runs them on more than one
process, and imports this module only then, so its process machinery
costs a one-chunk sweep, run_trial and the import of harness nothing.

Each worker is a plain child process, `sys.executable -c _BOOT`, not a
multiprocessing one: a spawn pool re-imports the caller's __main__, so a
script that calls harness.sweep without an `if __name__ == "__main__"`
guard would start a pool again in every worker, and it starts a
resource tracker process too.

A worker's environment is a copy of the parent's with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so its BLAS runs one
thread; the parent's own environment is never changed. The worker
imports irsmimo from the parent's package directory and refuses to run
if the import resolves anywhere else.

Protocol, over the worker's private stdin and stdout pipes (its stderr
is the parent's): the parent writes the pickled config once, then one
pickled job (point index, seeds) at a time; the worker answers each job
with the pickled (records, failures) of harness._sweep_chunk. A worker
redirects its own file descriptor 1 to stderr before it runs anything,
so no stray print can reach the protocol. It exits when its stdin
closes.
"""

import contextlib
import os
import pickle
import select
import signal
import subprocess
import sys
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent
# argv[1]: the directory to import irsmimo from; argv[2]: the package
# directory the import must resolve to.
_BOOT = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from irsmimo.pool import serve; serve(sys.argv[2])")


def worker_command() -> list[str]:
    """The command line that starts one worker of this package."""
    return [sys.executable, "-c", _BOOT, str(_PACKAGE.parent), str(_PACKAGE)]


def run_chunks(cfg, chunks: list[tuple[int, list[int]]],
               workers: int) -> list[tuple[list, int]]:
    """harness._sweep_chunk(cfg, *chunk) of every chunk, in chunk order,
    computed in `workers` child processes.

    Dispatch is dynamic: each worker holds one job at a time and gets the
    next chunk when it answers. Raises RuntimeError naming the chunk if a
    worker dies. On every exit, normal or not, each worker's stdin is
    closed and the worker killed and reaped, so none outlives the call.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    procs = []
    try:
        for _ in range(workers):
            procs.append(subprocess.Popen(
                worker_command(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=env))
        return _dispatch(procs, pickle.dumps(cfg), chunks)
    finally:
        for proc in procs:
            # A write cut short by a dead worker leaves bytes that close
            # would flush into the broken pipe.
            with contextlib.suppress(OSError):
                proc.stdin.close()
            proc.kill()
            proc.wait()
            proc.stdout.close()


def _dispatch(procs, config: bytes, chunks) -> list:
    """Feed `chunks` to the workers `procs` (the first message to each
    carries `config`) and collect the replies in chunk order."""
    replies = [None] * len(chunks)
    todo = iter(enumerate(chunks))
    busy = {}
    idle = [(proc, config) for proc in procs]
    while True:
        for proc, head in idle:
            job = next(todo, None)
            if job is None:
                break
            busy[proc.stdout] = proc, job
            try:
                proc.stdin.write(head + pickle.dumps(job[1]))
                proc.stdin.flush()
            except OSError as exc:
                raise _died(proc, job[1]) from exc
        if not busy:
            return replies
        idle = []
        for pipe in select.select(list(busy), [], [])[0]:
            proc, (i, chunk) = busy.pop(pipe)
            try:
                replies[i] = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise _died(proc, chunk) from exc
            idle.append((proc, b""))


def _died(proc, chunk) -> RuntimeError:
    proc.kill()
    code = proc.wait()
    point, seeds = chunk
    return RuntimeError(
        f"sweep worker {proc.pid} ended with exit code {code} while running "
        f"point {point}, seeds {seeds[0]}-{seeds[-1]}; its error output, "
        "if any, is on stderr")


def serve(package_dir: str) -> None:
    """Worker side of run_chunks: answer jobs until stdin closes.

    Exits with status 1, before reading anything, if this module was not
    imported from `package_dir`.
    """
    if _PACKAGE != Path(package_dir).resolve():
        sys.exit(f"irsmimo sweep worker: imported {_PACKAGE}, "
                 f"expected {package_dir}")
    # Ctrl-C reaches the whole process group; the parent, which gets it
    # too, ends the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    from .harness import _sweep_chunk
    messages = _messages(sys.stdin.buffer)
    cfg = next(messages, None)
    for point, seeds in messages:
        pickle.dump(_sweep_chunk(cfg, point, seeds), replies)
        replies.flush()


def _messages(stream):
    """The pickled objects on `stream`, until it ends."""
    while True:
        try:
            yield pickle.load(stream)
        except EOFError:
            return
