"""Frequent sequence mining on position bitmaps (SPAM).

The whole database is one Python int. Each sequence owns a byte-aligned
segment of len(seq) // 8 + 1 bytes: bit p of the segment stands for
position p, and the top bit of the segment's last byte, which no position
reaches, is the segment's guard. `starts` holds the lowest bit of every
segment and `guards` every guard bit. Each frequent symbol keeps a
position mask, its positions in every sequence plus every guard bit.

A pattern's projection holds every guard bit and, in each supporting
sequence, the positions after the end of the pattern's leftmost embedding.
Extending it by symbol s needs the first occurrence of s in the projection
of every segment, which a few big-int operations find at once:

    hits = proj & pos[s]            # every segment has a set bit, its guard at least
    upto = (hits - starts) ^ hits   # each segment's bits up to its first hit

Subtracting a segment's start bit clears its lowest set bit and sets the
bits below it; no borrow leaves a segment, since each holds a set bit. A
segment whose first hit is its guard does not contain the extension, so
the support is n - popcount(upto & guards), the extension's projection is
the complement of upto with the guards put back, and its cover is the
segments whose guard bit is not in upto, kept as a Cover whose packed mask
has bit k for sequence k + 1: the guard bytes, left once every other byte
is set to 0x01 and deleted, read as binary digits. One extension
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

from .core import Cover, MinSupport, PatternRecord, Sequence, SequenceDB, TidTable, mask_at, mine_patterns

# A cover's guard bytes, 0x80 for a supporting sequence and 0 otherwise, as the digits of its mask.
_GUARD_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def mine_frequent_sequences(
    db: SequenceDB, minsup: MinSupport, max_len: int | None = None
) -> list[PatternRecord]:
    """All frequent sequential patterns up to max_len symbols.

    Results come in canonical order (length, then symbol ids) with pids
    assigned 1..n. A threshold above the database size yields an empty list.
    """
    return mine_patterns(db, minsup, _spam, max_len=max_len)


def _spam(db: SequenceDB, sigma: int, max_len: int | None) -> list[tuple]:
    """Every sequence with support >= sigma, as mine_patterns' (size, symbols, Sequence, support, cover) entries."""
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
    starts, guards = mask_at(starts_at, base), mask_at(guards_at, base)
    # The guards ride in every position mask and projection: (a|G) & (b|G) = (a & b) | G.
    pos = {sym: mask_at(bits, base) | guards for sym, bits in at.items()}
    full = (1 << base) - 1
    # 0x01 in every byte but the guard bytes: deleting a cover's 0x01 bytes leaves its guard bytes.
    filler = int.from_bytes(b"\x01" * n_bytes, "little") ^ guards >> 7

    # A stack entry: a frequent prefix, its projection, its parent's frequent extensions.
    found = []
    stack: list[tuple[tuple[int, ...], int, list[int]]] = [((), full, symbols)]
    while stack:
        prefix, proj, tail = stack.pop()
        grow = max_len is None or len(prefix) + 1 < max_len
        kids = []
        for sym in tail:
            hits = proj & pos[sym]
            upto = (hits - starts) ^ hits
            missed = upto & guards
            support = n - missed.bit_count()
            if support >= sigma:
                pattern = prefix + (sym,)
                digits = (guards ^ missed | filler).to_bytes(n_bytes, "little").translate(_GUARD_DIGITS, b"\x01")
                found.append((len(pattern), pattern, Sequence(pattern), support, Cover(int(digits[::-1], 2), sids)))
                if grow:
                    kids.append((pattern, full ^ upto | guards))
        kid_syms = [pattern[-1] for pattern, _ in kids]
        # Pushed last to first, so the first kid is extended first.
        stack.extend((pattern, kid_proj, kid_syms) for pattern, kid_proj in reversed(kids))

    return found
