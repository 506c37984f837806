"""The helper threads of the package, and the one rule for their failures.

``both`` runs two calls side by side, ``pairs`` a list of calls two at a
time and ``ahead`` a block stream one block ahead, each on a
``ThreadPoolExecutor(1)`` that has ended when it returns or raises.  When
both sides fail, a ``MissingArtifactError`` (a corrupt input) outranks any
other failure, and otherwise the first call's failure outranks the
second's.  ``both`` can lend its helper to the first call (``Lent``) for
pieces of work queued behind the second; a piece the helper has not
started when it is claimed runs on the claiming thread.  Each generator is
drawn in order on one thread, so the data are those of a serial run.
perfbench's tracer keeps one span stack for all threads: callers build
their streams before a helper starts, each side of ``both`` and ``pairs``
makes one call into the package, and neither ``ahead``'s helper nor a lent
piece makes any.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from itertools import count
from typing import Callable, Iterator

import numpy as np

from .errors import MissingArtifactError
from .langevin import SeriesBlocks

# buffers in the ring of ``ahead``: the block the consumer holds and the
# two being filled
_AHEAD_RING = 3


class Lent:
    """The helper of ``both``, lent to its first call for pieces of work.

    ``submit(work, *args)`` queues ``work(*args)`` behind what the helper
    is doing and returns the piece's claim.  Calling the claim returns the
    piece's result: if the helper has not started the piece, the claim
    cancels it and runs it on the claiming thread, else it waits for the
    helper's.  Either way the piece runs once, and its exception is raised
    by the claim alone.
    """

    def __init__(self, helper: ThreadPoolExecutor):
        self._helper = helper
        self._unclaimed: set[Future] = set()

    def submit(self, work: Callable, *args) -> Callable:
        future = self._helper.submit(work, *args)
        self._unclaimed.add(future)

        def claim():
            self._unclaimed.discard(future)
            return work(*args) if future.cancel() else future.result()
        return claim

    def _withdraw(self) -> None:
        """Cancel the pieces not claimed that the helper has not started."""
        for future in self._unclaimed:
            future.cancel()


def both(first: Callable, second: Callable, lend: bool = False) -> tuple:
    """``(first(), second())``, ``second`` on a helper thread.

    With ``lend``, ``first`` is called with a ``Lent`` handle on the helper
    and claims every piece it submits; if it raises, the pieces it left
    unclaimed are withdrawn.  A failure is raised once both calls are done,
    ranked by the rule above.
    """
    with ThreadPoolExecutor(1) as helper:
        result = helper.submit(second)
        lent = Lent(helper)
        try:
            value = first(lent) if lend else first()
        except Exception as failed:
            lent._withdraw()
            corrupt = result.exception()
            if isinstance(corrupt, MissingArtifactError) \
                    and not isinstance(failed, MissingArtifactError):
                raise corrupt
            raise
        return value, result.result()


def pairs(consume: Callable, items: list) -> list:
    """``[consume(item) for item in items]``, two calls at a time.

    Of each pair of consecutive items, the helper consumes the second (see
    ``both``); a failure is raised once both calls of its pair are done,
    and no later pair starts.
    """
    results = []
    for i in range(0, len(items) - 1, 2):
        results += both(partial(consume, items[i]), partial(consume, items[i + 1]))
    if len(items) % 2:
        results.append(consume(items[-1]))
    return results


@contextmanager
def ahead(series: SeriesBlocks) -> Iterator[SeriesBlocks]:
    """``series`` generated one block ahead on a helper thread.

    The helper copies each block into a ring of ``_AHEAD_RING`` buffers,
    with two fills in flight, so a block stays valid until the next, as
    ``SeriesBlocks`` promises.  An exception of ``series`` is raised on the
    consuming thread at the block where it occurred.  On exit, whatever the
    path, the fills in flight finish, the helper closes ``series`` and ends.
    """
    ring = [np.empty(0)] * _AHEAD_RING

    def fill(slot: int) -> np.ndarray:
        block = next(series.blocks)  # at the end, the future holds StopIteration
        if len(ring[slot]) < len(block):
            ring[slot] = np.empty(len(block))
        copy = ring[slot][: len(block)]
        copy[:] = block
        return copy

    def handed(helper: ThreadPoolExecutor) -> Iterator[np.ndarray]:
        fills = deque(helper.submit(fill, slot) for slot in range(_AHEAD_RING - 1))
        for k in count(_AHEAD_RING - 1):
            try:
                block = fills.popleft().result()
            except StopIteration:
                return
            # the slot of the block before this one, which the consumer left
            fills.append(helper.submit(fill, k % _AHEAD_RING))
            yield block

    with ThreadPoolExecutor(1) as helper:
        try:
            yield SeriesBlocks(series.sample_interval, series.n_samples,
                               handed(helper), series.units, series.seed)
        finally:
            helper.submit(series.blocks.close)
