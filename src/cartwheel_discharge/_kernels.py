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
