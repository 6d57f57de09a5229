"""Frequent itemset mining over vertical tid bitsets (Eclat).

Each frequent item keeps one Python int, its tid mask: bit tid is set for
every transaction tid that contains the item (tids start at 1, so bit 0 is
never set). The mask of an itemset is the AND of its items' masks, and its
support is the popcount, so extending a prefix by one item costs one
big-int AND and one `bit_count()`, about n/64 machine words for n
transactions, instead of a set intersection over Python objects (Zaki,
"Scalable Algorithms for Association Mining", TKDE 2000).

The search is depth-first over the item lattice on an explicit stack.
Support is anti-monotone, so a prefix is only extended by the items that
were frequent beside it under its parent, in item order. Each frequent
itemset is yielded to the miner frame, mine_patterns, with its tid mask.
"""

from __future__ import annotations

from typing import Iterator

from .core import Itemset, MinSupport, PatternRecord, TransactionDB, mask_at, mine_patterns


def mine_frequent_itemsets(db: TransactionDB, minsup: MinSupport) -> list[PatternRecord]:
    """All frequent itemsets of db, in canonical order (size, then item ids).

    Returns one record per nonempty frequent itemset with its exact cover.
    Pids are assigned 1..n in canonical order. An effective threshold above
    the database size yields an empty list.
    """
    return mine_patterns(db, minsup, _eclat)


def _eclat(db: TransactionDB, sigma: int) -> Iterator[tuple]:
    """Every itemset with support >= sigma, as mine_patterns' (size, items, Itemset, support, tid mask) entries."""
    tidlists: dict[int, set[int]] = {}
    for tid, txn in db.records():
        for item in txn:
            tidlists.setdefault(item, set()).add(tid)
    n_bits = len(db) + 1
    bits = {item: mask_at(t, n_bits) for item, t in tidlists.items() if len(t) >= sigma}

    # A stack entry is a frequent prefix, its tid mask, and the items that
    # may extend it: those after its last item that were frequent beside it.
    stack: list[tuple[tuple[int, ...], int, list[int]]] = [((), (1 << n_bits) - 2, sorted(bits))]
    while stack:
        prefix, prefix_mask, tail = stack.pop()
        kids = []
        for item in tail:
            mask = prefix_mask & bits[item]
            support = mask.bit_count()
            if support >= sigma:
                items = prefix + (item,)  # increasing: item comes after prefix's last in tail
                yield len(items), items, Itemset._proved(items), support, mask
                kids.append((items, mask))
        kid_items = [items[-1] for items, _ in kids]
        # Pushed last to first, so the first kid is extended first.
        for k in range(len(kids) - 2, -1, -1):
            stack.append((*kids[k], kid_items[k + 1 :]))
