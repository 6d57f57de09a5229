"""Frequent sequence mining on position bitmaps (SPAM).

The whole database is one Python int. Each sequence owns a byte-aligned
segment of len(seq) // 8 + 1 bytes: bit p of the segment stands for
position p, and the top bit of the segment's last byte, which no position
reaches, is the segment's guard. Each frequent symbol keeps a position
mask, its positions in every sequence; `starts` holds the lowest bit of
every segment and `guards` every guard bit.

A pattern's projection holds, in each supporting sequence, the positions
strictly after the end of the pattern's leftmost embedding. Extending the
pattern by symbol s needs the first occurrence of s in the projection of
every segment, which a few big-int operations find at once:

    hits = proj & pos[s] | guards   # every segment now has a set bit
    upto = (hits - starts) ^ hits   # each segment's bits up to its first hit

Subtracting a segment's start bit clears its lowest set bit and sets the
bits below it; no borrow leaves a segment, since each holds a set bit. A
segment whose first hit is its guard does not contain the extension, so
the support is n - popcount(upto & guards), the extension's projection is
the complement of upto, and its cover is the segments whose guard bit is
not in upto, kept as a Cover of one flag byte per sequence: its guard
byte, left once every other byte is set to 0x01 and deleted. One extension
costs a handful of operations over the D bytes of the database, about D/8
machine words each, instead of a scan of every supporting sequence (Ayres,
Flannick, Gehrke & Yiu, "Sequential PAttern Mining using a Bitmap
Representation", KDD 2002). The search is depth-first on an explicit
stack with SPAM's S-step pruning: P+b is extended only by the symbols a
with P+a frequent, since supp(P+b+a) <= supp(P+a). Support counts
supporting sequences, never embeddings.
"""

from __future__ import annotations

from collections import Counter

from .core import Cover, MinSupport, PatternRecord, Sequence, SequenceDB, TidTable, mask_at
from .errors import InputError


def mine_frequent_sequences(
    db: SequenceDB, minsup: MinSupport, max_len: int | None = None
) -> list[PatternRecord]:
    """All frequent sequential patterns up to max_len symbols.

    Results come in canonical order (length, then symbol ids) with pids
    assigned 1..n. A threshold above the database size yields an empty list.
    """
    if len(db) == 0:
        raise InputError("database must be nonempty")
    if max_len is not None and max_len < 1:
        raise InputError("max_len must be positive")
    sigma = minsup.effective(len(db))
    if sigma > len(db):
        return []

    counts = Counter(sym for seq in db.sequences for sym in set(seq))
    symbols = sorted(sym for sym, count in counts.items() if count >= sigma)
    at: dict[int, list[int]] = {sym: [] for sym in symbols}
    starts_at: list[int] = []
    guards_at: list[int] = []
    base = 0
    for seq in db.sequences:
        for p, sym in enumerate(seq):
            if sym in at:
                at[sym].append(base + p)
        starts_at.append(base)
        base += 8 * (len(seq) // 8 + 1)
        guards_at.append(base - 1)
    n, n_bytes, sids = len(db), base // 8, TidTable(range(1, len(db) + 1))
    pos = {sym: mask_at(bits, base) for sym, bits in at.items()}
    starts, guards = mask_at(starts_at, base), mask_at(guards_at, base)
    full = (1 << base) - 1
    # 0x01 in every byte but the guard bytes, so that deleting the 0x01
    # bytes of a cover leaves one flag byte per sequence, its guard byte.
    filler = int.from_bytes(b"\x01" * n_bytes, "little") ^ guards >> 7

    # A stack entry: a frequent prefix, its projection, its parent's frequent extensions.
    found: list[tuple[tuple[int, ...], int, Cover]] = []
    stack: list[tuple[tuple[int, ...], int, list[int]]] = [((), full, symbols)]
    while stack:
        prefix, proj, tail = stack.pop()
        grow = max_len is None or len(prefix) + 1 < max_len
        kids = []
        for sym in tail:
            hits = proj & pos[sym] | guards
            upto = (hits - starts) ^ hits
            missed = upto & guards
            support = n - missed.bit_count()
            if support >= sigma:
                pattern = prefix + (sym,)
                flags = (guards ^ missed | filler).to_bytes(n_bytes, "little").translate(None, b"\x01")
                found.append((pattern, support, Cover(flags, sids)))
                if grow:
                    kids.append((pattern, full ^ upto))
        kid_syms = [pattern[-1] for pattern, _ in kids]
        # Pushed last to first, so the first kid is extended first.
        stack.extend((pattern, kid_proj, kid_syms) for pattern, kid_proj in reversed(kids))

    found.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return [
        PatternRecord(pid, Sequence(syms), support, cover, len(syms))
        for pid, (syms, support, cover) in enumerate(found, start=1)
    ]
