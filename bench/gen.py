"""Seeded instance generator owned by the benchmark.

Built only from prokit's public constructors, never from `prokit.randgen`,
so that a change to the library's own test generator cannot silently change
what the benchmark measures.  (One known quirk of `randgen.random_ring` is
that it ignores its `max_order`; the acceptance stream 0xA011 therefore
draws rings of order up to 64 although it asks for 36.  The distributions
below reproduce what those streams actually draw.)

Every catalogue entry is built from its own `random.Random`, seeded by the
stream constant and the entry index, so an entry can be rebuilt alone and
always yields the same ring, module and sequence.
"""

from __future__ import annotations

import random

VANISHING_STREAM = 0xA006
TOR_STREAM = 0xA011


def entry_rng(stream, index):
    return random.Random((stream << 32) | index)


def element(rng, R):
    if R.rank == 0:
        return R.zero()
    return R.element(tuple(rng.randrange(d) for d in R.additive.invariant_factors))


def small_ring(pk, rng):
    """A ring of the acceptance distribution other than Z/2 x Z/4 x Z/8,
    plus a few notable elements worth probing."""
    rings = pk.rings
    kind = rng.choice(["zmod", "zmod", "zmod", "product", "two_power", "poly"])
    if kind == "zmod":
        m = rng.randint(2, 32)
        R = rings.zmod(m)
        return R, [R.from_int(rng.randint(2, m)) for _ in range(2)]
    if kind == "product":
        m1, m2 = rng.randint(2, 8), rng.randint(2, 8)
        R, embed = rings.product_ring([rings.zmod(m1), rings.zmod(m2)])
        notables = [
            embed([rings.zmod(m1).from_int(rng.randint(0, m1)),
                   rings.zmod(m2).from_int(rng.randint(0, m2))])
            for _ in range(2)
        ]
        return R, notables
    if kind == "two_power":
        R, x, _ = rings.truncated_two_power(2)
        return R, [x, x * x]
    q, n = rng.choice([2, 3]), rng.randint(2, 3)
    R, t = rings.truncated_polynomial(q, n)
    return R, [t, t * t + R.one()]


def heavy_ring(pk):
    """Z/2 x Z/4 x Z/8, the ring behind every slow acceptance instance."""
    R, x, _ = pk.rings.truncated_two_power(3)
    return R, [x, x * x]


def sequence(rng, R, k, notables):
    """k elements mixing notable, random, unit and zero entries."""
    seq = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.35 and notables:
            seq.append(rng.choice(notables))
        elif roll < 0.45:
            seq.append(R.one())
        elif roll < 0.5:
            seq.append(R.zero())
        else:
            seq.append(element(rng, R))
    return seq


def presented_module(pk, rng, R):
    gens = rng.randint(1, 2)
    rels = [
        [element(rng, R) for _ in range(gens)]
        for _ in range(rng.randint(1, 2 if gens == 1 else 3))
    ]
    return pk.modules.module_from_presentation(R, gens, rels)[0]


def module(pk, rng, R, max_order):
    """R itself or a small presentation, of order at most `max_order`."""
    for _ in range(6):
        if rng.choice(["ring", "present", "present"]) == "ring":
            M = pk.modules.ring_as_module(R)
        else:
            M = presented_module(pk, rng, R)
        if M.order() <= max_order:
            return M
    return pk.modules.module_from_presentation(
        R, 1, [[element(rng, R)], [element(rng, R)]]
    )[0]


def order_two_module(pk, rng, R):
    """A residue field of R (order 2), found by seeded presentations."""
    for _ in range(1000):
        M = presented_module(pk, rng, R)
        if M.order() == 2:
            return M
    raise RuntimeError("no order-2 module found in 1000 seeded presentations")


def vanishing_instance(pk, index, heavy):
    """(R, M, seq) of the criterion-06 distribution: modules up to order
    256, sequences of length 1..3.  Heavy entries are an order-2 module over
    Z/2 x Z/4 x Z/8 and a sequence of length 2."""
    rng = entry_rng(VANISHING_STREAM, (index << 1) | heavy)
    if heavy:
        R, notables = heavy_ring(pk)
        M = order_two_module(pk, rng, R)
    else:
        R, notables = small_ring(pk, rng)
        M = module(pk, rng, R, 256)
    k = 2 if heavy else rng.randint(1, 3)
    return R, M, sequence(rng, R, k, notables)


def tor_instance(pk, index, heavy):
    """(R, M, N, seq) of the criterion-11 distribution: modules up to order
    64, sequences of length 1..2, N = R w.p. 0.4 else M.  Heavy entries are
    an order-2 module over Z/2 x Z/4 x Z/8 with N = M and length 2."""
    rng = entry_rng(TOR_STREAM, (index << 1) | heavy)
    if heavy:
        R, notables = heavy_ring(pk)
        M = order_two_module(pk, rng, R)
        N = M
    else:
        R, notables = small_ring(pk, rng)
        M = module(pk, rng, R, 64)
        N = pk.modules.ring_as_module(R) if rng.random() < 0.4 else M
    k = 2 if heavy else rng.randint(1, 2)
    return R, M, N, sequence(rng, R, k, notables)
