import time

import pytest

# Keep the shared helpers' asserts when the suite runs under python -O.
pytest.register_assert_rewrite("helpers")

from jordanform.testkit import random_block_spec, random_similar


@pytest.fixture(scope="session")
def conjugation_instances():
    """200 deterministic (spec, matrix, conjugator) triples plus build time.

    Shared by the conjugation-invariance and oracle-equivalence suites so
    both run over the same instances.
    """
    start = time.perf_counter()
    instances = []
    for seed in range(200):
        spec = random_block_spec(seed)
        a, s = random_similar(spec, seed + 10_000)
        instances.append((spec, a, s))
    elapsed = time.perf_counter() - start
    return instances, elapsed
