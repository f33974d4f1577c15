import pytest

from trdre import estimator, ratio_model


@pytest.fixture()
def overlap(monkeypatch):
    """overlap(on) -> list with one entry per pair the worker thread ran.

    Sets ratio_model._dot_pair's size floor to 0 (on: every pair of
    matrices overlaps) or to a size no matrix reaches (off: none does).
    The CPU and BLAS conditions are taken as met, and the caller waits for
    the worker however long it takes, so with on the worker's product is
    the one returned for every pair, wherever the test runs.
    """
    ran = []
    pair = ratio_model._DotWorker.pair

    def counted(self, *args):
        ran.append(1)
        return pair(self, *args)

    monkeypatch.setattr(ratio_model._DotWorker, "pair", counted)
    monkeypatch.setattr(ratio_model, "_overlap", True)
    monkeypatch.setattr(ratio_model, "_LATE", 1e6)

    def switch(on):
        monkeypatch.setattr(ratio_model, "_OVERLAP_MIN_SIZE", 0 if on else 1 << 62)
        ran.clear()
        return ran

    return switch


@pytest.fixture()
def forking(monkeypatch):
    """forking(on) -> list with one entry per round fit_many forked for.

    With on, every batch of two tasks or more runs on this process and
    up to two forked children, whatever the CPU count, the BLAS settings
    and the threads running; with off, every batch runs serially.
    """
    forked = []
    run_round = estimator._fit_round

    def counted(tasks, processes):
        if processes > 1:
            forked.append(processes)
        return run_round(tasks, processes)

    monkeypatch.setattr(estimator, "_fit_round", counted)

    def switch(on):
        monkeypatch.setattr(estimator, "_processes", (lambda n: min(n, 3)) if on else (lambda n: 1))
        forked.clear()
        return forked

    return switch
