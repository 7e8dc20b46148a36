"""Command-line front end: matrix ingestion, subcommands, exit codes.

Exit code contract: 0 success, 1 negative answer from ``similar`` or
``validate``, 2 parse or usage error, 3 irrational spectrum, 4 dimension
or shape error, 5 internal error. Diagnostics go to stderr; stdout stays
clean on errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .jordan import (
    DimensionMismatch,
    IrrationalSpectrum,
    JordanDecomposition,
    char_poly,
    generalized_eigenspace,
    jordan_form,
    jordan_structure,
    matrix_exp,
    restrict,
    similar,
    validate_decomposition,
)
from .matrices import Mat, _shift
from .nilpotent import block_sizes, d_sequence
from .polynomials import divide_out
from .rationals import _coerce, parse_rational

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IRRATIONAL = 3
EXIT_SHAPE = 4
EXIT_INTERNAL = 5


class ParseError(Exception):
    """Matrix input that does not conform to the text or JSON format."""

    def __init__(self, message: str, source: str = "<input>", line: int | None = None,
                 column: int | None = None):
        position = source
        if line is not None:
            position += f":{line}"
            if column is not None:
                position += f":{column}"
        super().__init__(f"{position}: {message}")


class RaggedRows(ParseError):
    """Rows of different lengths."""


class EmptyInput(ParseError):
    """No matrix rows at all."""


class ShapeError(Exception):
    """Input matrices with unusable dimensions for the requested command."""


_TOKEN = re.compile(r"[^ \t\r\v\f]+")


def _build_matrix(rows: list[tuple[int, list]], source: str) -> Mat:
    """The Mat of ``rows``, each ``(line, [(entry, column), ...])``, with every
    entry through ``_coerce``; ``column`` may be None."""
    if not any(entries for _, entries in rows):
        raise EmptyInput("no matrix rows found", source)
    width = len(rows[0][1])
    out = []
    for line, entries in rows:
        row = []
        for entry, column in entries:
            try:
                row.append(_coerce(entry))
            except (TypeError, ValueError):
                raise ParseError(f"bad rational token {entry!r}", source, line, column) from None
        if len(row) != width:
            raise RaggedRows(f"row has {len(row)} entries, expected {width}", source, line)
        out.append(row)
    return Mat(out)


def parse_matrix_text(text: str, source: str = "<input>") -> Mat:
    """One row per line (rows end at ``\\n``), entries separated by ASCII
    whitespace, ``#`` comments."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        entries = [(match.group(), match.start() + 1) for match in _TOKEN.finditer(line)]
        if entries and not entries[0][0].startswith("#"):
            rows.append((lineno, entries))
    return _build_matrix(rows, source)


def parse_matrix_json(text: str, source: str = "<input>") -> Mat:
    """Object with key ``matrix``: array of arrays of ints or rational strings."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", source) from None
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise ParseError('expected an object with a "matrix" key', source)
    raw = payload["matrix"]
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ParseError('"matrix" must be an array of arrays', source)
    return _build_matrix(
        [(i, [(entry, None) for entry in row]) for i, row in enumerate(raw, start=1)], source
    )


def _load_square(path: str, fmt: str | None) -> Mat:
    """The square, nonempty matrix in ``path`` (``-`` for stdin); ShapeError otherwise."""
    if path == "-":
        text, source = sys.stdin.read(), "<stdin>"
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text, source = handle.read(), path
    use_json = fmt == "json" or (fmt is None and path.endswith(".json"))
    m = (parse_matrix_json if use_json else parse_matrix_text)(text, source)
    if not m.is_square or m.nrows == 0:
        raise ShapeError(f"{source}: matrix is {m.nrows}x{m.ncols}, expected square and nonempty")
    return m


def _matrix_rows(m: Mat) -> list[list[str]]:
    return [[str(x) for x in m.row(i)] for i in range(m.nrows)]


def _cmd_jordan(args) -> int:
    a = _load_square(args.file, args.format)
    dec = jordan_form(a)
    if args.json:
        payload = {
            "eigenvalues": [
                {"value": str(lam), "blocks": list(sizes)}
                for lam, sizes in dec.spectrum_blocks
            ],
            "J": _matrix_rows(dec.j),
            "P": _matrix_rows(dec.p),
        }
        print(json.dumps(payload))
    else:
        for lam, sizes in dec.spectrum_blocks:
            print(f"eigenvalue {lam}: blocks {list(sizes)}")
        print("J =")
        print(dec.j)
        print("P =")
        print(dec.p)
    return EXIT_OK


def _cmd_blocks(args) -> int:
    a = _load_square(args.file, args.format)
    lam = args.eigenvalue
    _, mult = divide_out(char_poly(a), lam)
    if mult == 0:
        raise ShapeError(f"{lam} is not an eigenvalue")
    basis = generalized_eigenspace(a, lam, mult)
    shifted = _shift(restrict(a, basis), lam)
    seq = d_sequence(shifted)
    sizes = block_sizes(shifted)
    print("d-sequence:", " ".join(str(v) for v in seq.values))
    print("block sizes:", " ".join(str(s) for s in sizes))
    return EXIT_OK


def _cmd_similar(args) -> int:
    a = _load_square(args.file_a, args.format)
    b = _load_square(args.file_b, args.format)
    if a.nrows != b.nrows:
        raise ShapeError(f"dimensions differ: {a.nrows} vs {b.nrows}")
    witness = similar(a, b)
    if witness is None:
        print("not similar")
        return EXIT_NEGATIVE
    print("similar")
    if args.witness:
        print("S =")
        print(witness)
    return EXIT_OK


def _cmd_expm(args) -> int:
    a = _load_square(args.file, args.format)
    exp = matrix_exp(a)
    for lam, coeff in exp.terms:
        print(f"exp({lam}*t) *")
        for row in coeff:
            print("[" + ", ".join(entry.format("t") for entry in row) + "]")
    return EXIT_OK


def _cmd_validate(args) -> int:
    a = _load_square(args.file, args.format)
    p = _load_square(args.p, args.format)
    j = _load_square(args.j, args.format)
    n = a.nrows
    if p.nrows != n or j.nrows != n:
        raise ShapeError(f"matrices must all be {n}x{n}")
    structure = jordan_structure(j) or ()
    dec = JordanDecomposition(spectrum_blocks=structure, j=j, p=p)
    if validate_decomposition(a, dec):
        print("valid")
        return EXIT_OK
    print("invalid")
    return EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanform",
        description="Exact Jordan canonical forms of rational matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["text", "json"], default=None,
                       help="input format (default: by file extension)")

    p_jordan = sub.add_parser("jordan", help="Jordan form, transition matrix and blocks")
    p_jordan.add_argument("file", help="matrix file, or - for stdin")
    p_jordan.add_argument("--json", action="store_true", help="machine-readable output")
    add_common(p_jordan)
    p_jordan.set_defaults(handler=_cmd_jordan)

    p_blocks = sub.add_parser("blocks", help="invariants of one eigenvalue")
    p_blocks.add_argument("file")
    p_blocks.add_argument("--eigenvalue", required=True, metavar="Q", type=parse_rational)
    add_common(p_blocks)
    p_blocks.set_defaults(handler=_cmd_blocks)

    p_similar = sub.add_parser("similar", help="similarity test with optional witness")
    p_similar.add_argument("file_a")
    p_similar.add_argument("file_b")
    p_similar.add_argument("--witness", action="store_true", help="print the conjugator")
    add_common(p_similar)
    p_similar.set_defaults(handler=_cmd_similar)

    p_expm = sub.add_parser("expm", help="closed-form exp(tA)")
    p_expm.add_argument("file")
    add_common(p_expm)
    p_expm.set_defaults(handler=_cmd_expm)

    p_validate = sub.add_parser("validate", help="check a proposed decomposition")
    p_validate.add_argument("file")
    p_validate.add_argument("--p", required=True, help="transition matrix file")
    p_validate.add_argument("--j", required=True, help="Jordan matrix file")
    add_common(p_validate)
    p_validate.set_defaults(handler=_cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: building takes milliseconds,
    parsing one command line a small fraction of that."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Execute one command line; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IrrationalSpectrum as exc:
        print(
            f"error: eigenvalues are not all rational (residual: {exc.residual})",
            file=sys.stderr,
        )
        return EXIT_IRRATIONAL
    except (ShapeError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
