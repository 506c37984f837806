"""The helper threads of the package, and the one rule for their failures.

``both`` runs two calls side by side, ``pairs`` a list of calls two at a
time and ``ahead`` a block stream one block ahead, each on a
``ThreadPoolExecutor(1)`` that has ended when it returns or raises.  When
both sides fail, a ``MissingArtifactError`` (a corrupt input) outranks any
other failure, and otherwise the first call's failure outranks the
second's.  Each generator is drawn in order on one thread, so the data are
those of a serial run.  perfbench's tracer keeps one span stack for all
threads: callers build their streams before a helper starts, each side of
``both`` and ``pairs`` makes one call into the package, and ``ahead``'s
helper makes none.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
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


def both(first: Callable, second: Callable) -> tuple:
    """``(first(), second())``, ``second`` on a helper thread.

    A failure is raised once both calls are done, ranked by the rule above.
    """
    with ThreadPoolExecutor(1) as helper:
        result = helper.submit(second)
        try:
            value = first()
        except Exception as failed:
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
