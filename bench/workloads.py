"""Seeded workloads: which inputs each one builds and which ops it runs.

Each workload owns a fixed pool of instance keys split into strata (input
sizes). A run's seed only picks the order in which every stratum is
visited; one round takes the next key of each stratum, so every round has
the same size mix and a run's figures do not depend on where it stopped.
Because the pool is fixed, the digests of every op's output on every key
are recorded once (``record_digests.py``) and checked on every run.

Inputs are built only through the public ``jordanform.testkit`` generators
plus ``Mat`` arithmetic; the library sees nothing but the generated
matrices.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import jordanform
import jordanform.cli
from jordanform import JordanDecomposition, Mat
from jordanform.testkit import (
    BlockSpec,
    build_jordan_matrix,
    random_block_spec,
    random_similar,
    random_unimodular,
)

import gate


@dataclass
class Instance:
    key: str
    group: str        # stratum label, e.g. "n24" or "dim5"
    spec: BlockSpec   # planted block structure
    a: Mat
    a_rows: list      # the gate's own copy of A
    properties: dict  # input properties reported as input.* lines
    extra: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str   # digest key suffix, unique within an instance
    kind: str    # latency class reported as <kind>_p50_ms
    call: Callable[[], object]
    check: Callable[[object], bytes]


def _instance(key: str, group: str, spec: BlockSpec, a: Mat, s: Mat) -> Instance:
    a_rows = gate.rows(a)
    properties = {
        "dim": len(a_rows),
        "eigenvalue_height_bits": max(gate.height_bits(lam) for lam, _ in spec.pairs),
        "const_term_bits": gate.cleared_const_term(
            gate.charpoly_of_spectrum(spec.pairs)
        ).bit_length(),
        "entry_bits": gate.entry_bits(a_rows),
        "conjugator_bits": gate.entry_bits(gate.rows(s)),
    }
    return Instance(key, group, spec, a, a_rows, properties)


def _jordan_form_op(inst: Instance) -> Op:
    return Op(
        "jordan_form", "jordan_form",
        lambda: jordanform.jordan_form(inst.a),
        lambda out: gate.check_jordan_form(inst.a_rows, inst.spec.pairs, out),
    )


def _matrix_exp_op(inst: Instance) -> Op:
    return Op(
        "matrix_exp", "matrix_exp",
        lambda: jordanform.matrix_exp(inst.a),
        lambda out: gate.check_matrix_exp(inst.a_rows, inst.spec.pairs, out),
    )


class Ladder:
    """Dense conjugates of fixed dimension n = 8 .. 24, one per size a round."""

    name = "ladder"
    SIZES = (8, 12, 16, 20, 24)
    VARIANTS = 5

    def strata(self) -> list[list[str]]:
        return [[f"n{n}.v{v}" for v in range(self.VARIANTS)] for n in self.SIZES]

    def build(self, key: str) -> Instance:
        n, v = (int(part[1:]) for part in key.split("."))
        # random_block_spec draws the dimension and the number of eigenvalues
        # too. Take the first seed that gives exactly n with three eigenvalues,
        # none of multiplicity above n/2: one tall eigenvalue (a long power
        # tower with growing denominators) can double the cost of a call,
        # which would make a run's figures depend on which variants it drew.
        for i in itertools.count():
            seed = 1_000_000 * n + 1000 * v + i
            spec = random_block_spec(seed, max_dim=n)
            if (spec.dimension == n and len(spec.pairs) == 3
                    and max(sum(sizes) for _, sizes in spec.pairs) <= n // 2):
                break
        a, s = random_similar(spec, seed)
        return _instance(key, f"n{n}", spec, a, s)

    def ops(self, inst: Instance) -> list[Op]:
        return [_jordan_form_op(inst)]


class TallSpectrum:
    """One eigenvalue of height 1e11 .. 1e12 beside small ones, wide conjugators."""

    name = "tall_spectrum"
    SIZES = (6, 8, 10)
    VARIANTS = 16
    CONJUGATOR_BITS = (48, 64)

    def strata(self) -> list[list[str]]:
        return [[f"n{n}.v{v}" for v in range(self.VARIANTS)] for n in self.SIZES]

    def build(self, key: str) -> Instance:
        n, v = (int(part[1:]) for part in key.split("."))
        rng = random.Random(9_000_000 + 1000 * n + v)
        big = rng.randrange(10**11, 10**12)
        # Small eigenvalues 3, 2, 1, -1 keep |constant term| = 6 * big, so the
        # trial-division cost of rational root search is the same order on
        # every instance.
        ones = rng.randint(1, n - 4)
        spec = BlockSpec(pairs=(
            (big, (1,)), (3, (1,)), (2, (1,)),
            (1, _composition(rng, ones)), (-1, _composition(rng, n - 3 - ones)),
        ))
        lo, hi = self.CONJUGATOR_BITS
        for i in itertools.count():
            s = random_unimodular(n, rng.randrange(2**32) + i, steps=4 * n, bound=1024)
            if lo <= gate.entry_bits(gate.rows(s)) <= hi:
                break
        a = s * build_jordan_matrix(spec) * s.inverse()
        return _instance(key, f"n{n}", spec, a, s)

    def ops(self, inst: Instance) -> list[Op]:
        return [_jordan_form_op(inst), _matrix_exp_op(inst)]


class Stream:
    """Acceptance-style stream of small instances through every entry point.

    Keys are the first 32 seeds of ``random_block_spec`` for each dimension
    1 .. 8; a run of the default length visits nearly every key, so its cost
    depends little on the seed. Per instance: ``jordan_form``, ``matrix_exp``,
    ``validate_decomposition`` (true on even keys, a perturbed P on odd
    ones), ``similar`` (keys = 0, 1 mod 4 similar; 2 same characteristic
    polynomial with other blocks where possible; 3 another spectrum), and
    the CLI ``jordan FILE --json`` and ``blocks FILE --eigenvalue Q``.
    """

    name = "stream"
    MAX_DIM = 8
    PER_DIM = 32

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.specs: dict[int, BlockSpec] = {}
        self.by_dim: dict[int, list[str]] = {d: [] for d in range(1, self.MAX_DIM + 1)}
        for k in itertools.count():
            if all(len(keys) == self.PER_DIM for keys in self.by_dim.values()):
                break
            spec = random_block_spec(k, max_dim=self.MAX_DIM)
            keys = self.by_dim[spec.dimension]
            if len(keys) < self.PER_DIM:
                keys.append(f"k{k}")
                self.specs[k] = spec

    def strata(self) -> list[list[str]]:
        return list(self.by_dim.values())

    def build(self, key: str) -> Instance:
        k = int(key[1:])
        spec = self.specs[k]
        a, s = random_similar(spec, k + 10_000)
        inst = _instance(key, f"dim{spec.dimension}", spec, a, s)

        if k % 4 < 2:
            partner = spec
        elif k % 4 == 2 and (reblocked := _reblocked(spec)) is not None:
            partner = reblocked
        else:
            partner = _shifted(spec)
        inst.extra["b"] = random_similar(partner, k + 20_000)[0]
        inst.extra["b_rows"] = gate.rows(inst.extra["b"])
        inst.extra["similar"] = partner == spec

        # The planted (J, S) is a valid decomposition; S with entry (0, 0)
        # raised by 1 almost never is, and the gate decides which.
        p = s if k % 2 == 0 else Mat(
            [[x + (i == 0 == j) for j, x in enumerate(s.row(i))] for i in range(s.nrows)]
        )
        j = build_jordan_matrix(spec)
        inst.extra["vdec"] = JordanDecomposition(spectrum_blocks=spec.pairs, j=j, p=p)
        inst.extra["vtruth"] = gate.is_decomposition(inst.a_rows, gate.rows(p), gate.rows(j))

        q, sizes = spec.pairs[k % len(spec.pairs)]
        inst.extra["q"], inst.extra["q_sizes"] = q, sizes
        path = os.path.join(self.workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"matrix": [[str(x) for x in r] for r in inst.a_rows]}, handle)
        inst.extra["path"] = path
        return inst

    def ops(self, inst: Instance) -> list[Op]:
        x = inst.extra
        return [
            _jordan_form_op(inst),
            _matrix_exp_op(inst),
            Op(
                "validate", "validate",
                lambda: jordanform.validate_decomposition(inst.a, x["vdec"]),
                lambda out: gate.check_validate(x["vtruth"], out),
            ),
            Op(
                "similar", "similar",
                lambda: jordanform.similar(inst.a, x["b"]),
                lambda out: gate.check_similar(inst.a_rows, x["b_rows"], x["similar"], out),
            ),
            Op(
                "cli_jordan", "cli",
                lambda: _cli(["jordan", x["path"], "--json"]),
                lambda out: gate.check_cli_jordan(inst.a_rows, inst.spec.pairs, out),
            ),
            Op(
                "cli_blocks", "cli",
                lambda: _cli(["blocks", x["path"], f"--eigenvalue={x['q']}"]),
                lambda out: gate.check_cli_blocks(x["q_sizes"], out),
            ),
        ]


def _cli(argv: list[str]) -> tuple[int, str]:
    """In-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = jordanform.cli.run(argv)
    return code, out.getvalue()


def _composition(rng: random.Random, total: int) -> tuple[int, ...]:
    sizes = []
    while total:
        size = rng.randint(1, total)
        sizes.append(size)
        total -= size
    return tuple(sizes)


def _reblocked(spec: BlockSpec) -> BlockSpec | None:
    """Same characteristic polynomial, other blocks: split or merge one block."""
    pairs = list(spec.pairs)
    for i, (lam, sizes) in enumerate(pairs):
        if sizes[0] >= 2:
            pairs[i] = (lam, (sizes[0] - 1, 1) + sizes[1:])
            return BlockSpec(pairs=tuple(pairs))
    for i, (lam, sizes) in enumerate(pairs):
        if len(sizes) >= 2:
            pairs[i] = (lam, (2,) + sizes[2:])
            return BlockSpec(pairs=tuple(pairs))
    return None


def _shifted(spec: BlockSpec) -> BlockSpec:
    """Another spectrum: the largest eigenvalue moves up by one."""
    *rest, (lam, sizes) = spec.pairs
    return BlockSpec(pairs=tuple(rest) + ((lam + 1, sizes),))


def make(name: str, workdir: str):
    if name == "ladder":
        return Ladder()
    if name == "tall_spectrum":
        return TallSpectrum()
    if name == "stream":
        return Stream(workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ladder", "stream", "tall_spectrum")
