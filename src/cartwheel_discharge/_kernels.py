"""The interval kernels of the bound search, on packed axles.

An axle's packed form (see axles.py) has a byte lane per position:
bits 0..4 are its degree buckets 5, 6, 7, 8, >=9, bit 5 is a carry
guard that stays clear.  An outlet placed at spoke x of degree d
compiles into masks over the same lanes (`compile_outlet`):

    N   the buckets outside each entry interval, on the entry lanes
    W   each entry's buckets on its lane, all five on every other lane
    E   each entry's buckets on its lane, nothing elsewhere (W & K)
    K   all five bucket bits on each entry lane
    H   the guard bit on each entry lane

An outlet is enforced on an axle A when every entry lane of A lies
inside its entry: A & N == 0.  It is permitted when every entry lane
of A meets its entry; adding K to A & E carries into the guard bit
exactly on the lanes that are not empty, and no carry crosses a lane.
Its wedge intersects the entries into A: A & W.

The bound search settles every outlet of a context at once through
`LaneTables`, the same masks transposed by lane: one table lookup per
entry lane gives the bitsets of the outlets an axle leaves unenforced
and those it does not permit.  A settle reads an axle only on the entry
lanes, so the tables remember each result by those lanes' bytes, and
the search settles each lane pattern once per context.  The per-outlet
kernels stay for the wedge and the public rules.enforced / permitted /
axle_wedge_outlet.
"""

from __future__ import annotations

from .axles import bucket_mask, pos_add


def compile_outlet(entries, x, d):
    """(N, W, E, K, H) for the entries ((position, lo, hi), ...) placed at
    spoke x: each position shifted by x - 1 within its band."""
    n = k = h = 0
    for p, lo, hi in entries:
        q = pos_add(p, x - 1, d)
        m = bucket_mask(lo, hi)
        if not m:
            raise ValueError(f"outlet entry ({p}, {lo}, {hi}) has no "
                             f"legal degree in it")
        at = 8 * (q - 1)
        n |= (0x1F ^ m) << at
        k |= 0x1F << at
        h |= 0x20 << at
    full = int.from_bytes(b"\x1f" * (5 * d), "little")
    return n, full ^ n, k ^ n, k, h


def outlet_enforced(a, masks):
    return a & masks[0] == 0


def outlet_permitted(a, masks):
    _, _, e, k, h = masks
    return ((a & e) + k) & h == h


def outlet_wedge(a, masks):
    # None when not permitted
    _, w, e, k, h = masks
    if ((a & e) + k) & h != h:
        return None
    return a & w


class LaneTables:
    """The masks of a list of outlets transposed by lane, outlet i at
    bit i.  For an entry lane l and an axle byte b on it, slot b of l
    holds the outlets with an entry at l that b does not lie inside
    (b & ~m != 0: not enforced), and above them, shifted by the number
    of outlets, those whose entry b misses (b & m == 0: not permitted).
    A slot is filled on its first use.

    `settle` reads an axle only at its entry lanes, which `mask`
    covers, so two axles equal under `mask` settle alike: each result
    is kept by `packed & mask` for the life of the tables, and the
    slots serve only the patterns not seen yet."""

    def __init__(self, masks, d):
        self.n = len(masks)
        self.width = 5 * d
        self.mask = 0
        self._memo = {}
        lanes = {}
        for i, (outside, _, inside, k, _) in enumerate(masks):
            self.mask |= k
            while k:
                lane = ((k & -k).bit_length() - 1) >> 3
                at = 8 * lane
                lanes.setdefault(lane, []).append(
                    (1 << i, outside >> at & 0x1F, inside >> at & 0x1F))
                k &= ~(0xFF << at)
        self._lanes = tuple((lane, [None] * 32, tuple(entries))
                            for lane, entries in sorted(lanes.items()))

    def settle(self, packed):
        """The outlets the packed axle leaves unenforced, and above them,
        shifted by n, those it does not permit: one int, as a slot
        holds it."""
        key = packed & self.mask
        sets = self._memo.get(key)
        if sets is not None:
            return sets
        n = self.n
        raw = packed.to_bytes(self.width, "little")
        sets = 0
        for lane, slots, entries in self._lanes:
            b = raw[lane]
            got = slots[b]
            if got is None:
                out = miss = 0
                for bit, outside, inside in entries:
                    if b & outside:
                        out |= bit
                    if not b & inside:
                        miss |= bit
                got = slots[b] = out | miss << n
            sets |= got
        self._memo[key] = sets
        return sets
