"""Axles: interval bound vectors over cartwheel positions.

Positions for hub degree d are laid out in bands:

    0           hub (bounds fixed at (d,d))
    1..d        spokes, clockwise
    d+1..2d     hats (hat d+i sits between spokes i and i+1; 2d between d and 1)
    jd+1..(j+1)d  fan band j, for j = 2,3,4 (fan jd+i hangs off spoke i)

An axle is a pair of such vectors (lo, hi), stored as bytes of length
5d+1.  Lower bounds live in {5..9}, upper bounds in {5,6,7,8,12}; 12
stands for "unbounded".  A condition (n, m) tightens position n: m > 0
raises lo(n) to m, m < 0 lowers hi(n) to -m.

Because of those value sets, degrees 9, 10, 11 and up always move
together, and every interval is a run of the five buckets
{5, 6, 7, 8, >=9}.  The packed form of an axle is one int with a byte
lane per position n = 1..5d at bit 8(n-1): bits 0..4 hold the lane's
buckets and bit 5 is a carry guard that stays clear (see _kernels).
Byte lanes pack and unpack with one bytes.translate each.
"""

from __future__ import annotations

import hashlib

from .errors import InputError

LO_VALUES = (5, 6, 7, 8, 9)
HI_VALUES = (5, 6, 7, 8, 12)

# The null condition marks "no condition here" in presentation
# histories; it never participates in a wedge.
NULL_CONDITION = (0, 0)

CONDITION_VALUES = (-8, -7, -6, -5, 6, 7, 8, 9)


# Bucket bits of a bound: a lower bound l covers its bucket and every
# one above, an upper bound u its bucket and every one below; a lane is
# floor[lo] & ceil[hi].  Values outside LO_VALUES / HI_VALUES map to 0.
_FLOOR = bytes(0x1F & -(1 << (v - 5)) if v in LO_VALUES else 0
               for v in range(256))
_CEIL = bytes((1 << (min(v, 9) - 4)) - 1 if v in HI_VALUES else 0
              for v in range(256))
# a lane's bounds: its lowest bucket, and its highest with >=9 read as 12
_LANE_LO = bytes(4 + (v & -v).bit_length() if 0 < v < 32 else 0
                 for v in range(256))
_LANE_HI = bytes(HI_VALUES[v.bit_length() - 1] if 0 < v < 32 else 0
                 for v in range(256))


def bucket_mask(lo: int, hi: int) -> int:
    """The bucket bits of the interval [lo, hi]; 0 when it is empty or
    a bound lies outside LO_VALUES / HI_VALUES."""
    return _FLOOR[lo] & _CEIL[hi]


class Axle:
    """An axle of degree d, held as bounds (lo, hi), as its packed form,
    or both.  An axle built from bounds packs on first use of
    `packed`; one built by `from_packed` decodes `lo` and `hi` on first
    read.  Each form is computed at most once."""

    __slots__ = ("d", "lo", "hi", "packed")

    def __init__(self, d: int, lo: bytes, hi: bytes):
        self.d = d
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_packed(cls, d: int, packed: int) -> "Axle":
        a = cls.__new__(cls)
        a.d = d
        a.packed = packed
        return a

    def __getattr__(self, name):
        # reached only for a slot that is not filled yet
        if name == "packed":
            self.packed = _pack(self.d, self.lo, self.hi)
            return self.packed
        if name in ("lo", "hi"):
            lanes = self.packed.to_bytes(5 * self.d, "little")
            hub = bytes((self.d,))
            self.lo = hub + lanes.translate(_LANE_LO)
            self.hi = hub + lanes.translate(_LANE_HI)
            return getattr(self, name)
        raise AttributeError(name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.lo, self.hi) == (other.d, other.lo, other.hi)

    def __hash__(self):
        return hash((self.d, self.lo, self.hi))

    def __reduce__(self):
        return Axle, (self.d, self.lo, self.hi)

    def bounds(self, n: int):
        return self.lo[n], self.hi[n]

    def digest(self) -> str:
        h = hashlib.sha1(bytes([self.d]) + self.lo + self.hi)
        return h.hexdigest()[:12]

    def __repr__(self):
        pins = [
            f"{n}:({self.lo[n]},{self.hi[n]})"
            for n in range(1, 5 * self.d + 1)
            if (self.lo[n], self.hi[n]) != (5, 12)
        ]
        return f"Axle(d={self.d}, {' '.join(pins) or 'trivial'})"


def _pack(d, lo, hi) -> int:
    n = 5 * d
    packed = (int.from_bytes(lo[1:].translate(_FLOOR), "little")
              & int.from_bytes(hi[1:].translate(_CEIL), "little"))
    if (len(lo) != n + 1 or len(hi) != n + 1
            or 0 in packed.to_bytes(n, "little")):
        raise ValueError(f"axle of degree {d} has an empty interval or a "
                         f"bound outside {LO_VALUES} / {HI_VALUES}")
    return packed


def band_of(n: int, d: int) -> str:
    if n == 0:
        return "hub"
    if n <= d:
        return "spoke"
    if n <= 2 * d:
        return "hat"
    if n <= 5 * d:
        return "fan"
    raise ValueError(f"position {n} out of range for degree {d}")


def fan_row(n: int, d: int) -> int:
    # j such that n = j*d + i with 1 <= i <= d
    return (n - 1) // d


def spoke_of(n: int, d: int) -> int:
    # within-band offset, mapped back to the spoke index 1..d
    return (n - 1) % d + 1


def trivial_axle(d: int) -> Axle:
    if not 5 <= d <= 11:
        raise InputError(f"degree {d} out of range 5..11")
    lo = bytes([d]) + bytes([5] * (5 * d))
    hi = bytes([d]) + bytes([12] * (5 * d))
    return Axle(d, lo, hi)


def validate_axle(a: Axle):
    """Return the list of violated clauses as (tag, index) pairs.

    A1: lo <= hi.  A2: lo in {5..9}, hi in {5,6,7,8,12}.  A3: a spoke
    that is not pinned (lo < hi) must have all three fan entries
    trivial.  The hub entry must be (d,d).
    """
    d = a.d
    bad = []
    if len(a.lo) != 5 * d + 1 or len(a.hi) != 5 * d + 1:
        return [("A2", -1)]
    if a.lo[0] != d or a.hi[0] != d:
        bad.append(("A2", 0))
    for n in range(1, 5 * d + 1):
        if a.lo[n] > a.hi[n]:
            bad.append(("A1", n))
        if a.lo[n] not in LO_VALUES or a.hi[n] not in HI_VALUES:
            bad.append(("A2", n))
    for i in range(1, d + 1):
        if a.lo[i] != a.hi[i]:
            for j in (2, 3, 4):
                if (a.lo[j * d + i], a.hi[j * d + i]) != (5, 12):
                    bad.append(("A3", i))
                    break
    return bad


def pos_add(i: int, x: int, d: int) -> int:
    """i shifted by x within its band (wraps at the band edge)."""
    if x + (i - 1) % d < d:
        return i + x
    return i + x - d


def negate_condition(c):
    n, m = c
    if c == NULL_CONDITION:
        raise InputError("null condition has no negation")
    return (n, 1 - m)


def condition_compatible(a: Axle, c) -> bool:
    """True iff wedging c into a splits it into two nonempty halves.

    For m < 0 the threshold -m must lie in [lo, hi); for m > 0, in
    (lo, hi].  Fan positions are additionally gated on the owning
    spoke being pinned high enough for the fan to exist.
    """
    n, m = c
    if c == NULL_CONDITION:
        return False
    d = a.d
    if not 1 <= n <= 5 * d:
        return False
    if m < 0:
        if not (a.lo[n] <= -m < a.hi[n]):
            return False
    else:
        if not (a.lo[n] < m <= a.hi[n]):
            return False
    if n > 2 * d:
        j = fan_row(n, d)
        i = spoke_of(n, d)
        if not (a.lo[i] == a.hi[i] and a.lo[i] >= j + 4):
            return False
    return True


def axle_wedge_condition(a: Axle, c) -> Axle:
    if not condition_compatible(a, c):
        raise InputError(f"condition {c} incompatible with {a!r}")
    n, m = c
    lo = bytearray(a.lo)
    hi = bytearray(a.hi)
    if m > 0:
        lo[n] = m
    else:
        hi[n] = -m
    return Axle(a.d, bytes(lo), bytes(hi))


def is_fan_free(a: Axle) -> bool:
    d = a.d
    for n in range(2 * d + 1, 5 * d + 1):
        if (a.lo[n], a.hi[n]) != (5, 12):
            return False
    return True


def symmetry_permutation(k: int, eps: int, d: int):
    """Position map of rotate^k after optional reflect, on 0..2d.

    Entry j of the source axle lands at out[j]:
    (tau^k sigma^eps M).bounds(out[j]) = M.bounds(j).
    """
    out = [0] * (2 * d + 1)
    for j in range(1, 2 * d + 1):
        s = j
        if eps:
            if j <= d:
                s = d + 1 - j
            elif j < 2 * d:
                s = 3 * d - j
        out[j] = pos_add(s, k, d)
    return out
