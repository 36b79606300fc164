"""The seeded random stream of the check battery.

All generation flows through one random.Random seeded with an explicit
64-bit value, so every battery is replayable from the seed recorded in
its report.  The random instances of the property suites are drawn in
`tests/random_instances.py` from the same stream."""

from __future__ import annotations

import random


def rng_from_seed(seed):
    return random.Random(seed & 0xFFFFFFFFFFFFFFFF)
