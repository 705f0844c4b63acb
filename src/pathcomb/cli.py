"""Command line surface: sampling, combing, verification, determinants,
enumeration, tiling conversion and SVG rendering.

Each command imports the modules it runs when it runs, so a process pays
start-up only for its own command: ``det`` loads ``delannoy`` alone, and
``decimal`` only for a power of more than 4,300 digits; ``sample`` loads
``rng``, ``families`` and ``combing`` but no ``tilings`` or ``svg``.
Importing this module loads only the integer-field rule of ``fields``,
which the parser needs.  Names that callers read from this module, such
as ``comb`` and ``PathFamily``, are served by ``__getattr__`` (PEP 562):
each read goes to the defining module, so it follows a patch there and
caches nothing.  ``tile`` and ``render`` call the public functions of
``tilings`` and ``svg`` alone; the packed tiling they run on stays inside
the ``DominoTiling`` those functions return and take.

The commands are listed once, in ``build_parser``: each subparser binds
its ``cmd_*`` function as the default ``run``, and the options' dests are
that function's parameter names.  ``main`` calls ``run`` with the parsed
options, in one place inside its mapping of errors to exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import Counter
from importlib import import_module

from . import fields

# enumerate --stat NAME runs enumeration.<function>
_STATISTIC_FUNCTIONS = {
    "columns": "column_counts",
    "intercolumns": "intercolumn_counts",
    "rows": "row_counts",
    "diagonals": "diagonal_step_count",
}
# the names __getattr__ serves, and the module that defines each
_DEFINED_IN = {
    "comb": "combing", "comb_column": "combing", "uncomb": "combing",
    "verify_reduction": "delannoy",
    "column_counts": "enumeration", "diagonal_step_count": "enumeration",
    "enumerate_disjoint": "enumeration", "intercolumn_counts": "enumeration",
    "row_counts": "enumeration", "verify_bijection": "enumeration",
    "BitTriangle": "families", "ParseError": "families", "PathFamily": "families",
    "PreconditionViolation": "families", "_fields": "families",
    "family_from_bits": "families",
    "_plain_int": "fields",
    "random_triangle": "rng",
    "render_dual": "svg", "render_family": "svg", "render_overlay": "svg",
    "render_tiling": "svg",
    "Convention": "tilings", "DominoTiling": "tilings", "family_to_tiling": "tilings",
    "tiling_to_family": "tilings",
}


def __getattr__(name: str) -> object:
    if name == "STATISTICS":
        return {stat: __getattr__(fn) for stat, fn in _STATISTIC_FUNCTIONS.items()}
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_DEFINED_IN[name]}"), name)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def cmd_sample(n: int, seed: int, out_family: str | None = None,
               out_triangle: str | None = None, svg_path: str | None = None) -> int:
    from .combing import comb
    from .rng import random_triangle

    t = random_triangle(n, seed)
    f = comb(t)
    if out_triangle:
        _emit(t.to_text(), out_triangle)
    if out_family:
        _emit(f.to_text(), out_family)
    if not out_triangle and not out_family:
        sys.stdout.write(t.to_text())
        sys.stdout.write(f.to_text())
    if svg_path:
        from .svg import render_family

        _emit(render_family(f), svg_path)
    return 0


def cmd_comb(input_path: str, output: str | None, stages: str | None = None) -> int:
    from .combing import comb, comb_column
    from .families import BitTriangle, family_from_bits

    t = BitTriangle.from_text(_read(input_path))
    if stages:
        from .svg import render_family

        os.makedirs(stages, exist_ok=True)
        f = family_from_bits(t)
        for k in range(t.n - 1, -1, -1):
            f = comb_column(f, k)
            _emit(render_family(f), os.path.join(stages, f"stage-{k:03d}.svg"))
        _emit(f.to_text(), output)
    else:
        _emit(comb(t).to_text(), output)
    return 0


def cmd_uncomb(input_path: str, output: str | None) -> int:
    from .combing import uncomb
    from .families import PathFamily

    f = PathFamily.from_text(_read(input_path))
    _emit(uncomb(f).to_text(), output)
    return 0


def cmd_det(n: int) -> int:
    from .delannoy import verify_reduction

    # passing at n certifies det A_m = 2^(m-1) det A_{m-1} for every m <= n
    if n > 0 and not verify_reduction(n):
        print("unitriangular reduction identity failed", file=sys.stderr)
        return 1
    exponent = n * (n - 1) // 2
    print(f"{_power_of_two(exponent)} = 2^{exponent}")
    return 0


def _power_of_two(e: int) -> str:
    """Every decimal digit of 2^e.  Up to 4,300 digits (e <= 14,284), the
    default digit limit of str(int), str(1 << e) prints them at once; past
    that, or past a lower limit the interpreter sets (ValueError), the
    power comes from decimal, as converting a large int to decimal takes
    time superlinear in its digits.  A decimal power is exact in a context
    whose precision no power reaches, as the trapped Inexact makes sure."""
    if e <= 14_284:
        try:
            return str(1 << e)
        except ValueError:
            pass
    from decimal import MAX_EMAX, MAX_PREC, Context, Inexact

    return str(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact]).power(2, e))


def cmd_enumerate(n: int, cap: int, stat: str | None) -> int:
    from . import enumeration

    families = enumeration.enumerate_disjoint(n, cap)
    print(f"{len(families)} disjoint families of order {n}")
    if stat:
        statistic = getattr(enumeration, _STATISTIC_FUNCTIONS[stat])
        hist = Counter(map(statistic, families))

        def key_text(k):
            return " ".join(str(x) for x in k) if isinstance(k, tuple) else str(k)

        for key in sorted(hist):
            print(f"{key_text(key)} : {hist[key]}")
    return 0


def cmd_verify(n: int, cap: int) -> int:
    from .enumeration import verify_bijection

    report = verify_bijection(n, cap)
    print(f"triangles combed: {report.triangles}")
    if report.ok:
        print(f"image matched {report.disjoint_families}/{report.disjoint_families} "
              f"disjoint families")
    else:
        print(f"failures: {len(report.failures)}")
        for failure in report.failures[:20]:
            print(f"  {failure}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_tile(input_path: str, direction: str, output: str | None) -> int:
    from .families import PathFamily
    from .tilings import DominoTiling, family_to_tiling, tiling_to_family

    text = _read(input_path)
    if direction == "to-tiling":
        _emit(family_to_tiling(PathFamily.from_text(text)).to_text(), output)
    else:
        _emit(tiling_to_family(DominoTiling.from_text(text)).to_text(), output)
    return 0


# the line boundaries of str.splitlines, every one of them whitespace
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _detect_kind(text: str) -> str:
    """The kind of file by its first nonblank line: one field for a family
    and four for a tiling.  Only the lines up to that one are split, with
    the line breaks and numbering of str.splitlines."""
    from .families import ParseError

    # the first field, looked for a block at a time: text.lstrip() would
    # copy the whole text
    start = 0
    while not (block := text[start:start + 4096]).strip():
        if not block:
            return "tiling"  # empty file: the order-0 tiling
        start += 4096
    start += len(block) - len(block.lstrip())
    # the end of its line: each search stops where an earlier one found a break
    end = len(text)
    for brk in _LINE_BREAKS:
        found = text.find(brk, start, end)
        if found >= 0:
            end = found
    lines = text[:end].splitlines()
    tokens = lines[-1].split()
    if len(tokens) == 1:
        return "family"
    if len(tokens) == 4:
        return "tiling"
    raise ParseError(f"cannot tell input kind from line {lines[-1]!r}", line=len(lines))


def cmd_render(input_path: str, style: str, convention: int, output: str | None) -> int:
    from .families import ParseError, PathFamily
    from .svg import render_dual, render_family, render_overlay, render_tiling
    from .tilings import Convention, DominoTiling

    text = _read(input_path)
    kind = _detect_kind(text)
    if style in ("paths", "dual"):
        if kind != "family":
            raise ParseError(f"style {style!r} needs a family file")
        f = PathFamily.from_text(text)
        doc = render_family(f) if style == "paths" else render_dual(f)
    else:
        if kind != "tiling":
            raise ParseError(f"style {style!r} needs a tiling file")
        t = DominoTiling.from_text(text)
        doc = render_tiling(t) if style == "tiling" else render_overlay(t, Convention(convention))
    _emit(doc, output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # integer options take what the file formats take: an optional minus
    # sign and ASCII digits
    def integer(text: str) -> int:
        return fields._plain_int(text)

    integer.__name__ = "int"  # argparse's message: invalid int value: 'x'

    def order(text: str) -> int:
        n = fields._plain_int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"order must be nonnegative, got {n}")
        return n

    p = argparse.ArgumentParser(
        prog="pathcomb",
        description="Comb free-bit path families into disjoint ones, convert "
                    "them to Aztec diamond tilings, and verify the counting "
                    "identities behind the construction.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="comb a random triangle deterministically")
    sp.set_defaults(run=cmd_sample)
    sp.add_argument("--n", type=order, required=True)
    sp.add_argument("--seed", type=integer, default=0)
    sp.add_argument("--out-family")
    sp.add_argument("--out-triangle")
    sp.add_argument("--svg", dest="svg_path", metavar="SVG")

    sp = sub.add_parser("comb", help="triangle file to disjoint family file")
    sp.set_defaults(run=cmd_comb)
    sp.add_argument("--input", dest="input_path", metavar="INPUT", required=True)
    sp.add_argument("--output")
    sp.add_argument("--stages", help="directory for one SVG per column stage")

    sp = sub.add_parser("uncomb", help="disjoint family file to triangle file")
    sp.set_defaults(run=cmd_uncomb)
    sp.add_argument("--input", dest="input_path", metavar="INPUT", required=True)
    sp.add_argument("--output")

    sp = sub.add_parser("det", help="exact determinant of the Delannoy matrix")
    sp.set_defaults(run=cmd_det)
    sp.add_argument("--n", type=order, required=True)

    sp = sub.add_parser("enumerate", help="enumerate disjoint families")
    sp.set_defaults(run=cmd_enumerate)
    sp.add_argument("--n", type=order, required=True)
    sp.add_argument("--cap", type=integer, default=5)
    sp.add_argument("--stat", choices=sorted(_STATISTIC_FUNCTIONS))

    sp = sub.add_parser("verify", help="exhaustively verify the bijection")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("--n", type=order, required=True)
    sp.add_argument("--cap", type=integer, default=5)

    sp = sub.add_parser("tile", help="convert between family and tiling files")
    sp.set_defaults(run=cmd_tile)
    sp.add_argument("--input", dest="input_path", metavar="INPUT", required=True)
    sp.add_argument("--direction", choices=("to-tiling", "to-family"), required=True)
    sp.add_argument("--output")

    sp = sub.add_parser("render", help="render a family or tiling file as SVG")
    sp.set_defaults(run=cmd_render)
    sp.add_argument("--input", dest="input_path", metavar="INPUT", required=True)
    sp.add_argument("--style", choices=("paths", "tiling", "overlay", "dual"),
                    default="paths")
    sp.add_argument("--convention", type=integer, choices=(0, 1, 2, 3), default=0)
    sp.add_argument("--output")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def _precondition_violation() -> tuple[type[Exception], ...]:
    """families.PreconditionViolation, which main reports like ValueError,
    once families is loaded; before that, nothing can have raised it."""
    families = sys.modules.get(f"{__package__}.families")
    return () if families is None else (families.PreconditionViolation,)


def main(argv: list[str] | None = None) -> int:
    args = vars(_parser().parse_args(argv))
    run = args.pop("run")
    del args["command"]
    try:
        return run(**args)
    except (ValueError, OverflowError, OSError, *_precondition_violation()) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an allocation that fails raises MemoryError with no message
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
