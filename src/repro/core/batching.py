"""Batch scheduling: Batch-DFS (Algorithm 4) and the FIFO ablation.

Batch-DFS treats the buffer area as a stack and fills the processing area
from the *top* — "always process a batch of the longest paths first"
(Observation 1: longer paths have stronger barrier pruning, so they spawn
fewer intermediate paths and the buffer overflows to DRAM less often).

Each path record carries ``next_ptr``/``last_ptr`` into the CSR edge array;
a super-node whose degree exceeds the remaining processing capacity is
scheduled partially and resumes in a later batch.

Both schedulers operate directly on the buffer area's parallel lists
(structure of arrays) — no per-record objects are created while walking
the stack; only the scheduled slices materialise as
:class:`~repro.core.paths.ProcessingEntry` tuples.
"""

from __future__ import annotations

from repro.core.paths import BufferArea, ProcessingEntry
from repro.errors import ConfigError


def batch_dfs(buffer: BufferArea, theta: int) -> list[ProcessingEntry]:
    """Draw up to ``theta`` one-hop expansions from the stack top.

    Mutates ``buffer``: scheduled ranges advance each record's ``next_ptr``
    and fully-exhausted records at the top are popped.  Returns the
    processing-area entries (possibly fewer than ``theta`` expansions when
    the buffer runs out).
    """
    if theta < 1:
        raise ConfigError(f"batch size threshold must be >= 1, got {theta}")
    verts = buffer._verts
    nexts = buffer._next
    lasts = buffer._last
    head = buffer._head
    entries: list[ProcessingEntry] = []
    cnt = 0
    i = len(verts) - 1
    while i >= head:
        ptr1 = nexts[i]
        ptr2 = ptr1 + (theta - cnt)
        ptr_last = lasts[i]
        if ptr2 > ptr_last:
            ptr2 = ptr_last
        if ptr2 > ptr1:
            entries.append(ProcessingEntry(verts[i], ptr1, ptr2))
            nexts[i] = ptr2
            cnt += ptr2 - ptr1
            if cnt >= theta:
                break
        i -= 1
    _pop_exhausted_top(buffer)
    return entries


def fifo_batch(buffer: BufferArea, theta: int) -> list[ProcessingEntry]:
    """The no-Batch-DFS ablation: draw expansions from the *bottom*.

    First-in-first-out order processes the shortest paths first — the
    ordering the paper replaces ("always process a batch of the shortest
    paths first") when evaluating Batch-DFS in Fig. 13.
    """
    if theta < 1:
        raise ConfigError(f"batch size threshold must be >= 1, got {theta}")
    entries: list[ProcessingEntry] = []
    cnt = 0
    while cnt < theta and not buffer.is_empty:
        head = buffer._head
        ptr1 = buffer._next[head]
        ptr2 = ptr1 + (theta - cnt)
        ptr_last = buffer._last[head]
        if ptr2 > ptr_last:
            ptr2 = ptr_last
        if ptr2 > ptr1:
            entries.append(
                ProcessingEntry(buffer._verts[head], ptr1, ptr2)
            )
        buffer._next[head] = ptr2
        cnt += ptr2 - ptr1
        if ptr2 >= ptr_last:
            buffer.pop_front()
        else:
            break  # capacity exhausted mid-record
    return entries


def _pop_exhausted_top(buffer: BufferArea) -> None:
    """Remove the contiguous run of fully-scheduled records at the top."""
    nexts = buffer._next
    lasts = buffer._last
    head = buffer._head
    j = len(nexts) - 1
    while j >= head and nexts[j] >= lasts[j]:
        j -= 1
    buffer.pop_suffix(j + 1 - head)


def total_expansions(entries: list[ProcessingEntry]) -> int:
    """Total one-hop expansions scheduled in a batch."""
    return sum(e.num_expansions for e in entries)
