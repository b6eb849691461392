"""Print one SHA-256 over the simulator's estimates on generated scenarios.

    python3 tools/estimates_digest.py SRC [COUNT]

SRC is the directory that holds the ``alphagate`` package (``src`` in a
checkout) and COUNT the number of scenarios (default 1000). The scenarios
come from a fixed generator, so two trees whose simulators agree bit for bit
print the same digest. Each scenario is run at 1 and at 2 threads, and the
digest covers ``repr`` of both ``Estimates`` with ``elapsed`` set to 0.

The generator covers every design (equicorrelated rho from 0 to 0.999),
both sides and the four FWER methods; k from 1 to 200; alpha from 0.7 down
to 5e-324; null, mixed, huge (+-1e300) and near-cutoff shifts, including
shifts near 37.5 where erfc underflows; and reps from 1 to 17,000, one
scenario in twenty past one chunk so that it ends in a partial one. Another
one in twenty has k past one chunk's length, up to ``DRAW_BUDGET / reps``,
at reps 1 to 4, so that each of its tiles is one replication.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
import time

#: k * reps stays under this, so 1,000 scenarios take seconds, not minutes.
DRAW_BUDGET = 1_000_000
ALPHAS = [0.7, 0.5, 0.3, 0.05, 0.01, 1e-6, 1e-30, 1e-300, 1e-305, 1e-310, 5e-324]
RHOS = [0.0, 0.3, 0.5, 0.999]


def scenarios(count: int):
    import numpy as np
    from scipy.special import ndtri

    from alphagate.families import FWER_METHODS, Design, Scenario, Sides
    from alphagate.simulate import CHUNK_REPS

    rng = np.random.default_rng(20211)
    for index in range(count):
        kind = rng.choice(["independent", "equicorrelated", "shared_control"])
        rho = float(rng.choice(RHOS) if rng.random() < 0.6 else rng.uniform(0.0, 0.999))
        design = Design.equicorrelated(rho) if kind == "equicorrelated" else Design(str(kind))
        sides = list(Sides)[rng.integers(2)]
        method = FWER_METHODS[rng.integers(len(FWER_METHODS))]
        alpha = float(rng.choice(ALPHAS) if rng.random() < 0.7 else math.exp(rng.uniform(math.log(5e-324), math.log(0.7))))

        if index % 20 == 10:  # k past one chunk's length at a few reps
            reps = int(rng.integers(1, 5))
            k = int(math.exp(rng.uniform(math.log(CHUNK_REPS + 1), math.log(DRAW_BUDGET // reps))))
        else:
            if index % 20 == 0:  # past one chunk, ending in a partial one
                reps = int(rng.integers(16_385, 17_001))
            else:
                reps = int(math.exp(rng.uniform(0.0, math.log(17_000))))
            k = int(math.exp(rng.uniform(0.0, math.log(200))))
            k = max(1, min(k, DRAW_BUDGET // reps))

        # n = 2 makes each shift its delta
        cut = -float(ndtri(alpha if sides is Sides.ONE_SIDED else max(alpha / 2, 5e-324)))
        pattern = rng.choice(["null", "mixed", "huge", "cutoff", "underflow"])
        if pattern == "null":
            deltas = np.zeros(k)
        elif pattern == "mixed":
            deltas = np.where(rng.random(k) < 0.5, 0.0, rng.uniform(-3.0, 3.0, k))
        elif pattern == "huge":
            deltas = np.where(rng.random(k) < 0.5, 0.0, rng.choice([-1e300, 1e300, 0.4], k))
        elif pattern == "cutoff":
            deltas = np.where(rng.random(k) < 0.3, 0.0, cut + rng.uniform(-1.0, 1.0, k))
        else:
            deltas = np.where(rng.random(k) < 0.3, 0.0, 37.5 + rng.uniform(-0.3, 0.3, k))
        deltas = [float(d) for d in deltas]
        yield Scenario(
            k=k,
            null_pattern=tuple(d == 0.0 for d in deltas),
            deltas=tuple(deltas),
            n=2,
            design=design,
            sides=sides,
            alpha_joint=alpha,
            method=method,
            reps=reps,
            seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
        )


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    count = int(argv[2]) if len(argv) == 3 else 1000

    from alphagate.simulate import simulate

    digest = hashlib.sha256()
    start = time.perf_counter()
    for scenario in scenarios(count):
        for threads in (1, 2):
            estimates = dataclasses.replace(simulate(scenario, threads=threads), elapsed=0.0)
            digest.update(repr(estimates).encode())
    print(f"{count} scenarios at threads 1 and 2: sha256 {digest.hexdigest()}")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
