"""Order-preserving fan-out of independent tasks to worker processes."""

from __future__ import annotations


def fan_out(fn, tasks, workers: int):
    """Yield fn(task) for every task of the list `tasks`, in task order.

    With more than one worker the tasks go to a process pool one by one;
    the eigen and spectrum sweeps make each task a block of sweep points.
    The pool never holds more processes than there are tasks, so no idle
    worker is forked, and it is skipped when that leaves one: the calls
    then run lazily in this process. Each result is yielded as soon as it
    and every earlier one are done, so a consumer can stream them without
    holding them all.
    """
    n = min(workers, len(tasks))
    if n <= 1:
        yield from map(fn, tasks)
        return
    # Deferred: the process-pool machinery is the slowest import of the
    # package and a one-worker run never needs it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n) as pool:
        yield from pool.map(fn, tasks)
