"""End-to-end acceptance checks, one test per criterion.

Every check is exact (no tolerances); the stated runtime limits are
asserted where given. Each criterion prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them live.
"""

import functools
import json
import random
import time
from fractions import Fraction

from jordanform import (
    Mat,
    Poly,
    block_generators,
    block_sizes,
    char_poly,
    d_sequence,
    generalized_eigenspace,
    height,
    jordan_blocks,
    jordan_form,
    matrix_exp,
    nilpotency_index,
    restrict,
    similar,
    validate_decomposition,
    validate_generators,
)
from jordanform.cli import run
from jordanform.testkit import (
    BlockSpec,
    matrix_exp_via_jordan,
    random_block_spec,
    random_similar,
    weyr_oracle,
)

from helpers import (
    CONJUGATE_5X5_A,
    CONJUGATE_5X5_B,
    MIXED_4X4,
    NILPOTENT_4X4,
    ROTATION_2X2,
    SEVEN_LOW_GENERATOR,
    TWO_BLOCK_7X7,
    assert_exp_identities,
    random_nilpotent,
    unit,
)


def criterion(number, description, limit_seconds=None):
    """Print one pass/fail line per criterion, enforcing its runtime limit."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if limit_seconds is not None and elapsed >= limit_seconds:
                    raise AssertionError(
                        f"took {elapsed:.2f}s, limit {limit_seconds}s"
                    )
            except BaseException:
                print(f"criterion {number} FAIL: {description}")
                raise
            print(f"criterion {number} PASS: {description} ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "single-chain 4x4 nilpotent golden case", limit_seconds=1.0)
def test_criterion_1_single_chain_4x4():
    a = NILPOTENT_4X4
    assert len(a.nullspace_basis()) == 1
    assert block_sizes(a) == (4,)
    assert a ** 3 == Mat([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert nilpotency_index(a) == 4
    assert validate_generators(a, [unit(4, 3)]) == (4,)
    assert block_generators(a).chains == ((unit(4, 3), 4),)


@criterion(2, "mixed-spectrum 4x4 golden case", limit_seconds=1.0)
def test_criterion_2_mixed_spectrum_4x4():
    a = MIXED_4X4
    two, four = Poly([-2, 1]), Poly([-4, 1])
    assert char_poly(a) == two ** 3 * four

    basis = generalized_eigenspace(a, 2, 3)
    assert basis == [unit(4, 0), unit(4, 1), unit(4, 2)]

    restriction = restrict(a, basis)
    assert restriction == Mat([[2, 0, 2], [0, 2, 1], [0, 0, 2]])

    shifted = restriction - 2 * Mat.identity(3)
    assert d_sequence(shifted).values == (2, 1, 0)

    dec = jordan_form(a)
    assert dec.spectrum_blocks == ((Fraction(2), (2, 1)), (Fraction(4), (1,)))
    assert dec.j == Mat([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 4]])

    # Same block multiset as the alternate order with the size-1 block first.
    alternate = Mat([[2, 0, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 4]])
    assert sorted(jordan_blocks(dec.j)) == sorted(jordan_blocks(alternate))

    assert validate_decomposition(a, dec)


@criterion(3, "conjugate 5x5 pair with verified witness", limit_seconds=1.0)
def test_criterion_3_conjugate_5x5_pair():
    for m in (CONJUGATE_5X5_A, CONJUGATE_5X5_B):
        assert jordan_form(m).spectrum_blocks == ((Fraction(0), (5,)),)
    s = similar(CONJUGATE_5X5_A, CONJUGATE_5X5_B)
    assert s is not None
    assert s.rank() == 5
    assert CONJUGATE_5X5_A * s == s * CONJUGATE_5X5_B


@criterion(4, "7x7 two-block case with known generators", limit_seconds=1.0)
def test_criterion_4_two_block_7x7():
    a = TWO_BLOCK_7X7
    assert nilpotency_index(a) == 6
    assert block_sizes(a) == (6, 1)
    assert weyr_oracle(a, 0) == (6, 1)
    assert validate_generators(a, [SEVEN_LOW_GENERATOR, unit(7, 6)]) == (6, 1)
    own = block_generators(a)
    assert validate_generators(a, [g for g, _ in own.chains]) == (6, 1)


def test_criterion_5_conjugation_invariance(conjugation_instances):
    instances, generation_seconds = conjugation_instances
    start = time.perf_counter()
    try:
        assert len(instances) >= 200
        for spec, a, _ in instances:
            assert spec.dimension <= 8
            dec = jordan_form(a)
            assert dec.spectrum_blocks == spec.pairs
            assert a * dec.p == dec.p * dec.j
        elapsed = generation_seconds + time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"
    except BaseException:
        print("criterion 5 FAIL: conjugation invariance on 200 instances")
        raise
    print(
        "criterion 5 PASS: conjugation invariance on 200 instances "
        f"({generation_seconds + time.perf_counter() - start:.2f}s)"
    )


@criterion(6, "oracle equivalence on the same 200 instances")
def test_criterion_6_oracle_equivalence(conjugation_instances):
    instances, _ = conjugation_instances
    for spec, a, _ in instances:
        for lam, mult_sizes in spec.pairs:
            basis = generalized_eigenspace(a, lam, sum(mult_sizes))
            shifted = restrict(a, basis) - lam * Mat.identity(len(basis))
            assert block_sizes(shifted) == weyr_oracle(a, lam)


@criterion(7, "chain and quotient property suites on 100 instances each")
def test_criterion_7_property_suites():
    # Chain independence: v of height h spans an h-dimensional subspace.
    rng = random.Random(2024)
    for seed in range(100):
        a, _ = random_nilpotent(seed)
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.nrows))
        if all(x == 0 for x in v):
            v = unit(a.nrows, 0)
        h = height(a, v)
        chain = [v]
        for _ in range(h - 1):
            chain.append(a.apply(chain[-1]))
        assert Mat.from_columns(chain).rank() == h

    # For equal-size-n block sums and 0 < j < n, the kernel of A^j equals
    # the column span of A^(n-j).
    for seed in range(100):
        gen = random.Random(seed)
        blocks = gen.randint(1, 3)
        size = gen.randint(2, 4)
        spec = BlockSpec(pairs=((Fraction(0), (size,) * blocks),))
        a, _ = random_similar(spec, seed + 31_000)
        for j in range(1, size):
            kernel = (a ** j).nullspace_basis()
            power = a ** (size - j)
            _, pivots = power.rref()
            image = [power.col(c) for c in pivots]
            k_rank = Mat.from_columns(kernel, nrows=a.nrows).rank()
            i_rank = Mat.from_columns(image, nrows=a.nrows).rank()
            union = Mat.from_columns(kernel + image, nrows=a.nrows).rank()
            assert k_rank == i_rank == union == blocks * j

    # Equal-height generators stay independent modulo the lower kernel.
    for seed in range(100):
        a, _ = random_nilpotent(seed + 70_000)
        by_height: dict[int, list] = {}
        for g, h in block_generators(a).chains:
            by_height.setdefault(h, []).append(g)
        for h, gens in by_height.items():
            lower = (a ** (h - 1)).nullspace_basis()
            stacked = Mat.from_columns(lower + gens, nrows=a.nrows)
            assert stacked.rank() == len(lower) + len(gens)


@criterion(8, "exponential identities on 50 instances")
def test_criterion_8_exponential_identities():
    for seed in range(50):
        spec = random_block_spec(seed, max_dim=6)
        a, _ = random_similar(spec, seed + 41_000)
        exp = matrix_exp(a)
        assert exp == matrix_exp_via_jordan(a)
        assert_exp_identities(a, exp)


@criterion(9, "CLI contract with stable machine output")
def test_criterion_9_cli_contract(tmp_path, capsys):
    def write(name, m):
        path = tmp_path / name
        path.write_text(
            "\n".join(" ".join(str(x) for x in m.row(i)) for i in range(m.nrows)) + "\n"
        )
        return str(path)

    mixed = write("mixed.txt", MIXED_4X4)
    pair_a = write("a.txt", CONJUGATE_5X5_A)
    pair_b = write("b.txt", CONJUGATE_5X5_B)
    rotation = write("rot.txt", ROTATION_2X2)

    assert run(["jordan", mixed, "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["jordan", mixed, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["eigenvalues"] == [
        {"value": "2", "blocks": [2, 1]},
        {"value": "4", "blocks": [1]},
    ]

    assert run(["similar", pair_a, pair_b]) == 0
    assert capsys.readouterr().out == "similar\n"
    assert run(["similar", pair_a, pair_b]) == 0
    assert capsys.readouterr().out == "similar\n"

    assert run(["jordan", rotation]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x^2 + 1" in captured.err
