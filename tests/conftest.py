import pytest

from trdre import ratio_model


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
