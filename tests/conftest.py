import pytest

from trdre import estimator


@pytest.fixture()
def overlap(monkeypatch):
    """overlap(on) -> list with one entry per pair handed to a worker thread.

    Sets estimator's overlap floor to 0 (on: every fit is large and
    starts a worker thread) or to a size no matrix reaches (off: none
    does). _cpus() reads 2, and the caller waits for the worker however
    long it takes, so with on the worker's product is the one returned
    for every pair of a fit's loop, wherever the test runs.
    """
    ran = []
    pair = estimator._DotWorker.pair

    def counted(self, *args):
        if self.idle:
            ran.append(1)
        return pair(self, *args)

    monkeypatch.setattr(estimator._DotWorker, "pair", counted)
    monkeypatch.setattr(estimator, "_cpus", lambda: 2)
    monkeypatch.setattr(estimator, "_LATE", 1e6)

    def switch(on):
        monkeypatch.setattr(estimator, "_OVERLAP_MIN_SIZE", 0 if on else 1 << 62)
        ran.clear()
        return ran

    return switch


@pytest.fixture()
def forking(monkeypatch):
    """forking(on) -> list with one entry per round fit_many forked for.

    With on, every batch of two tasks or more runs on this process and
    up to two forked children, whatever the CPU count, the BLAS settings,
    the threads running and the tasks' sizes and column counts; with off,
    every batch runs serially.
    """
    forked = []
    run_round = estimator._fit_round

    def counted(tasks, processes):
        if processes > 1:
            forked.append(processes)
        return run_round(tasks, processes)

    monkeypatch.setattr(estimator, "_fit_round", counted)

    def switch(on):
        monkeypatch.setattr(estimator, "_processes", (lambda tasks: min(len(tasks), 3)) if on else (lambda tasks: 1))
        forked.clear()
        return forked

    return switch
