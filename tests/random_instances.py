"""Seeded random instances for the property suites.

Each generator draws from a `random.Random` made by
`prokit.randgen.rng_from_seed`, so every battery is replayable from its
seed.  Only the tests draw instances; the runtime keeps `rng_from_seed`
alone, for the seeds recorded in reports."""

from prokit.modules import module_from_presentation, ring_as_module
from prokit.rings import product_ring, truncated_polynomial, truncated_two_power, zmod


def random_ring(rng):
    """A small ring plus a few notable elements worth probing."""
    kind = rng.choice(["zmod", "zmod", "zmod", "product", "two_power", "poly"])
    if kind == "zmod":
        m = rng.randint(2, 32)
        R = zmod(m)
        notables = [R.from_int(rng.randint(2, m)) for _ in range(2)]
        return R, notables
    if kind == "product":
        m1 = rng.randint(2, 8)
        m2 = rng.randint(2, 8)
        R, embed = product_ring([zmod(m1), zmod(m2)])
        notables = [
            embed([zmod(m1).from_int(rng.randint(0, m1)), zmod(m2).from_int(rng.randint(0, m2))])
            for _ in range(2)
        ]
        return R, notables
    if kind == "two_power":
        N = rng.randint(2, 3)
        R, x, one = truncated_two_power(N)
        return R, [x, x * x]
    q = rng.choice([2, 3])
    n = rng.randint(2, 3)
    R, t = truncated_polynomial(q, n)
    return R, [t, t * t + R.one()]


def random_element(rng, R):
    if R.rank == 0:
        return R.zero()
    return R.element(tuple(rng.randrange(d) for d in R.additive.invariant_factors))


def random_sequence(rng, R, k, notables=()):
    """k elements mixing notable, random, unit, and zero entries."""
    seq = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.35 and notables:
            seq.append(rng.choice(list(notables)))
        elif roll < 0.45:
            seq.append(R.one())
        elif roll < 0.5:
            seq.append(R.zero())
        else:
            seq.append(random_element(rng, R))
    return seq


def random_module(rng, R, max_order=256, attempts=6):
    """A module over R of bounded order: R itself, or a small presentation."""
    for _ in range(attempts):
        style = rng.choice(["ring", "present", "present"])
        if style == "ring":
            M = ring_as_module(R)
            if M.order() <= max_order:
                return M
            continue
        gens = rng.randint(1, 2)
        rels = []
        for _ in range(rng.randint(1, 2 if gens == 1 else 3)):
            rels.append([random_element(rng, R) for _ in range(gens)])
        M, _, _ = module_from_presentation(R, gens, rels)
        if 0 < M.order() <= max_order or M.is_zero_module():
            return M
    # fallback: a cyclic quotient, always small enough
    r = random_element(rng, R)
    M, _, _ = module_from_presentation(R, 1, [[r], [random_element(rng, R)]])
    return M


def random_instance(rng, k_max=3, module_order=256):
    """(ring, module, sequence) with the sizes the acceptance suite uses."""
    R, notables = random_ring(rng)
    M = random_module(rng, R, max_order=module_order)
    k = rng.randint(1, k_max)
    seq = random_sequence(rng, R, k, notables)
    return R, M, seq
