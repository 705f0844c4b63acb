"""The four text formats: every ParseError message, with its line and
column, and fuzzed inputs that either round-trip or raise ParseError."""

from __future__ import annotations

import os
import random
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import pathcomb as pc
import pathcomb.cli
import pathcomb.tilings
from conftest import format_texts, seeded_tiling_text
from oracles import detect_kind_by_lines, integers_by_lines
from pathcomb.families import _integers
from pathcomb.tilings import _canonical, _fill


def _render(style):
    def parse(text):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "input.txt")
            with open(path, "w") as fh:
                fh.write(text)
            return pathcomb.cli.cmd_render(path, style, 0, os.path.join(d, "out.svg"))
    return parse


TRIANGLE = pc.BitTriangle.from_text
FAMILY = pc.PathFamily.from_text
REGION = pc.Region.from_text
TILING = pc.DominoTiling.from_text
DETECT = pathcomb.cli._detect_kind

# 200 distinct lines each: cells (k, 0) and dominoes (k, 0)-(k, 1)
_GOOD_CELLS = "".join(f"{k} 0\n" for k in range(200))
_GOOD_DOMINOES = "".join(f"{k} 0 {k} 1\n" for k in range(200))

# (parser, input, message, line, column): one row per message, plus rows
# that pin which of two errors on different lines is reported (the first)
MESSAGES = [
    (TRIANGLE, "", "missing order header", 1, None),
    (TRIANGLE, " \n1\n", "missing order header", 1, None),
    (TRIANGLE, "x\n", "bad order header 'x'", 1, None),
    (TRIANGLE, "-1\n", "order must be nonnegative", 1, None),
    (TRIANGLE, "3\n0\n", "missing row 2", 3, None),
    (TRIANGLE, "3\n0 1\n1 0\n", "row 1 must hold 1 bits", 2, None),
    (TRIANGLE, "3\n0 0\n", "row 1 must hold 1 bits", 2, None),
    (TRIANGLE, "3\n0\n1 7\n", "bad bit '7'", 3, 1),
    (TRIANGLE, "1\njunk\n", "trailing content after triangle", 2, None),
    (TRIANGLE, "0\n\n \n1\n", "trailing content after triangle", 4, None),
    (TRIANGLE, "2\n1\n\n0\n", "trailing content after triangle", 4, None),
    (FAMILY, "", "missing order header", 1, None),
    (FAMILY, "two\n", "bad order header 'two'", 1, None),
    (FAMILY, "-2\n", "order must be nonnegative", 1, None),
    (FAMILY, "2\nB: | D: 0\n", "missing row 1", 3, None),
    (FAMILY, "2\nB: 0 | D: 0\n", "row 0 must hold 0 B entries and 1 D entries", 2, None),
    (FAMILY, "1\nB: D: 0\n", "row must contain '|'", 2, None),
    (FAMILY, "1\nD: 0 | B:\n", "row must start with 'B:'", 2, None),
    (FAMILY, "1\nB: | 0\n", "second half must start with 'D:'", 2, None),
    (FAMILY, "1\nB: | D: x\n", "non-integer entry", 2, None),
    (FAMILY, "1\nB: | D: 0\n\nextra\n", "trailing content after family", 4, None),
    (REGION, "1 2 3\n", "region line must hold two integers", 1, None),
    (REGION, "\n1 x\n", "non-integer cell coordinate", 2, None),
    (REGION, "1 2\n3 4\n1 2\n", "cell repeats line 1", 3, None),
    (REGION, "1 2\n1 2\nx\n", "cell repeats line 1", 2, None),
    (TILING, "0 0 0\n", "tiling line must hold four integers", 1, None),
    (TILING, "a b c d\n", "non-integer cell coordinate", 1, None),
    (TILING, "0 0 0 1\n\n0 1 0 0\n", "domino repeats line 1", 3, None),
    (TILING, "0 0 0 1\n0 0 0 1\n0 0\n", "domino repeats line 1", 2, None),
    (DETECT, "1 2\n", "cannot tell input kind from line '1 2'", 1, None),
    (DETECT, "\n\n1 2\n", "cannot tell input kind from line '1 2'", 3, None),
    (_render("paths"), "0 0 0 1\n", "style 'paths' needs a family file", None, None),
    (_render("overlay"), "1\nB: | D: 0\n", "style 'overlay' needs a tiling file", None, None),
    # long inputs, where the whole text is converted in one pass and only a
    # failing one is read again line by line: the first bad line is named
    (REGION, _GOOD_CELLS + "7\n", "region line must hold two integers", 201, None),
    (REGION, _GOOD_CELLS + "7 y\n", "non-integer cell coordinate", 201, None),
    (REGION, _GOOD_CELLS + "7 y\n1 2 3\n", "non-integer cell coordinate", 201, None),
    (REGION, _GOOD_CELLS + "1 2 3\n7 y\n", "region line must hold two integers", 201, None),
    (REGION, _GOOD_CELLS + "1 x y\n", "region line must hold two integers", 201, None),
    (REGION, _GOOD_CELLS + "7 y\n3 0\n", "non-integer cell coordinate", 201, None),
    (REGION, _GOOD_CELLS + "3 0\n7 y\n", "cell repeats line 4", 201, None),
    (REGION, "0 5\n" + _GOOD_CELLS + "\n0 5\n", "cell repeats line 1", 203, None),
    (TILING, _GOOD_DOMINOES + "7 0 7\n", "tiling line must hold four integers", 201, None),
    (TILING, _GOOD_DOMINOES + "7 0 7 z\n", "non-integer cell coordinate", 201, None),
    (TILING, _GOOD_DOMINOES + "7 0 7 z\n0 0 0\n", "non-integer cell coordinate", 201,
     None),
    (TILING, _GOOD_DOMINOES + "0 0 0\n7 0 7 z\n", "tiling line must hold four integers",
     201, None),
    (TILING, _GOOD_DOMINOES + "a b c\n", "tiling line must hold four integers", 201, None),
    (TILING, _GOOD_DOMINOES + "x 0 0 1\n3 1 3 0\n", "non-integer cell coordinate", 201,
     None),
    (TILING, _GOOD_DOMINOES + "3 1 3 0\nx 0 0 1\n", "domino repeats line 4", 201, None),
    (TILING, "0 5 0 6\n" + _GOOD_DOMINOES + "\n0 6 0 5\n", "domino repeats line 1", 203,
     None),
    # integer fields are an optional minus sign and ASCII digits; other
    # tokens that int() accepts (a plus sign, underscores, digits of other
    # scripts) are rejected like any other non-integer field
    (TRIANGLE, "+3\n0\n0 0\n", "bad order header '+3'", 1, None),
    (TRIANGLE, "1_0\n", "bad order header '1_0'", 1, None),
    (FAMILY, "\u0662\n", "bad order header '\u0662'", 1, None),
    (FAMILY, "1\nB: | D: +0\n", "non-integer entry", 2, None),
    (FAMILY, "2\nB: | D: 0\nB: 1_0 | D: 0 0\n", "non-integer entry", 3, None),
    (FAMILY, "2\nB: | D: 0\nB: 1 | D: 0 \u0660\n", "non-integer entry", 3, None),
    (REGION, "+1 2\n", "non-integer cell coordinate", 1, None),
    (REGION, "1 \u0662\n", "non-integer cell coordinate", 1, None),
    (TILING, "0 0 0 1_0\n", "non-integer cell coordinate", 1, None),
    (REGION, _GOOD_CELLS + "+7 0\n", "non-integer cell coordinate", 201, None),
    (REGION, "+0 0\n" + _GOOD_CELLS, "non-integer cell coordinate", 1, None),
    (TILING, _GOOD_DOMINOES + "7 0 7 1_0\n", "non-integer cell coordinate", 201, None),
    (TILING, _GOOD_DOMINOES + "7 0 7 \uff11\n", "non-integer cell coordinate", 201, None),
]


@pytest.mark.parametrize("parse, text, message, line, column", MESSAGES,
                         ids=[f"{i}-{row[2][:24]}" for i, row in enumerate(MESSAGES)])
def test_parse_error_messages(parse, text, message, line, column):
    with pytest.raises(pc.ParseError) as err:
        parse(text)
    loc = ""
    if line is not None:
        loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
    assert str(err.value) == message + loc
    assert (err.value.line, err.value.column) == (line, column)


def test_plain_integers_still_parse():
    # a minus sign, leading zeros and spaces around the order header stay valid
    assert REGION("-3 07\n-0 1\n") == pc.Region(frozenset({(-3, 7), (0, 1)}))
    assert TILING("-1 0 -1 1\n") == pc.DominoTiling.from_pairs([((-1, 0), (-1, 1))])
    assert FAMILY("  2 \nB: | D: 0\nB: 1 | D: 00 0\n") == pc.PathFamily(((), (1,)),
                                                                        ((0,), (0, 0)))
    assert TRIANGLE(" 2\t\n1\n") == pc.BitTriangle(((), (1,)))


FORMATS = {"triangle": pc.BitTriangle, "family": pc.PathFamily,
           "region": pc.Region, "tiling": pc.DominoTiling}


@pytest.mark.parametrize("kind", FORMATS)
def test_fuzzed_text_round_trips_or_names_its_line(kind):
    parse = FORMATS[kind].from_text

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(format_texts(kind))
    def check(text):
        try:
            x = parse(text)
        except pc.ParseError as err:
            assert err.line is not None
            return
        out = x.to_text()
        assert parse(out) == x
        assert parse(out).to_text() == out

    check()


# canonical texts of width 4 and 2, and copies that leave the canonical
# layout (ASCII, "\n" endings, single spaces, fields of "-" and digits) by
# one separator or one field; to str.split "\u00a0" and "\u3000" are
# spaces, and to str.splitlines "\x0b", "\x0c", "\x1c", "\x85" and "\u2028"
# end a line
CANONICAL = ("1 0 1 1\n-2 3 -4 15\n", "1 0\n-2 15\n")
SEPARATORS = ("\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u3000", "\u2028")
FIELDS = ("+1", "1_0", "-", "1-2", "--1", "1-", "-0", "007", "\u0663", "\uff11")


def layouts(text: str) -> list[str]:
    return [text, text.replace("\n", "\r\n"), " " + text, text.replace("\n", " \n", 1),
            text.replace(" ", "  ", 1), "\n" + text, text + "\n", text.replace("\n", "\n\n", 1),
            text.replace("\n", "\n \n", 1), text[:-1],
            *(text.replace(" ", sep, 1) for sep in SEPARATORS),
            *(text.replace("\n", sep, 1) for sep in SEPARATORS),
            *(text.replace("15", field) for field in FIELDS)]


def test_integers_match_the_line_reader():
    texts = ["", *(copy for text in CANONICAL for copy in layouts(text))]
    assert len(texts) == 1 + 2 * (10 + 2 * len(SEPARATORS) + len(FIELDS))
    for text in texts:
        for width in (2, 4):
            assert _integers(text, width) == integers_by_lines(text, width), (text, width)


def test_integers_of_canonical_fields():
    # the one-pass check keeps what the line reader takes, and no more
    assert _integers(CANONICAL[0], 4) == [1, 0, 1, 1, -2, 3, -4, 15]
    assert _integers(CANONICAL[1], 2) == [1, 0, -2, 15]
    assert _integers(CANONICAL[0].replace("15", "-0"), 4)[-1] == 0
    assert _integers(CANONICAL[0].replace("15", "007"), 4)[-1] == 7
    for field in ("+1", "1_0", "-", "1-2", "--1", "1-", "\u0663", "\uff11"):
        assert _integers(CANONICAL[0].replace("15", field), 4) is None
    assert _integers("", 4) == []


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(("tiling", "region")).flatmap(format_texts))
def test_integers_of_fuzzed_text_match_the_line_reader(text):
    for width in (2, 4):
        assert _integers(text, width) == integers_by_lines(text, width)


def aztec_tiling_texts() -> list[str]:
    """The tiling file of every tiling of the Aztec diamonds of orders 0-4,
    and of two seeded tilings of orders 64 and 200."""
    texts = [pc.family_to_tiling(f).to_text()
             for n in range(1, 6) for f in pc.enumerate_disjoint(n)]
    return texts + [seeded_tiling_text(65, 5), seeded_tiling_text(201, 21)]


@pytest.mark.parametrize("block", [1, 20, None])
def test_canonical_reader_matches_the_domino_reader(block, monkeypatch):
    # blocks of one line, of about two lines, and of the module's size:
    # each file is read straight into the packed tiling that the
    # domino-by-domino reader gives
    if block is not None:
        monkeypatch.setattr(pathcomb.tilings, "_BLOCK", block)
    texts = aztec_tiling_texts()
    assert len(texts) == 1 + 2 + 8 + 64 + 1024 + 2 and texts[0] == ""
    for text in texts:
        m, P = _fill(integers_by_lines(text, 4))
        assert _canonical(text) == (m, bytes(P))
        assert TILING(text)._held == (m, bytes(P))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(format_texts("tiling"))
def test_canonical_reader_of_fuzzed_text_agrees_with_the_domino_reader(text):
    # a file the canonical reader takes, the domino-by-domino reader takes
    # too, as the same packed tiling
    held = _canonical(text)
    if held is not None:
        m, P = _fill(integers_by_lines(text, 4))
        assert held == (m, bytes(P))


def non_canonical_copies(text: str) -> dict[str, str]:
    """Copies of a tiling file that leave the layout _packed_text writes,
    each a file of the same tiling."""
    lines = text.splitlines(keepends=True)
    k = len(lines) // 2
    a, b, c, d = lines[k].split()
    zero = next(i for i, line in enumerate(lines) if line.split()[1] == "0")
    seven = next(i for i, line in enumerate(lines) if line.startswith("7 "))

    def with_line(i, line):
        return "".join(lines[:i] + [line] + lines[i + 1:])

    return {
        "shuffled": "".join(random.Random(5).sample(lines, len(lines))),
        "reversed pair": with_line(k, f"{c} {d} {a} {b}\n"),
        "007": with_line(seven, "00" + lines[seven]),
        "-0": with_line(zero, lines[zero].replace(" 0 ", " -0 ", 1)),
        "trailing blank line": text + "\n",
        "crlf": text.replace("\n", "\r\n"),
    }


@pytest.mark.parametrize("layout", list(non_canonical_copies(seeded_tiling_text(65, 5))))
def test_non_canonical_files_give_the_same_tiling(layout):
    text = seeded_tiling_text(65, 5)
    copy = non_canonical_copies(text)[layout]
    assert copy != text
    # only a shuffle keeps the layout; the others are read the other way
    assert (_canonical(copy) is None) == (layout != "shuffled")
    t = TILING(copy)
    assert t == TILING(text) and t._held == TILING(text)._held
    assert t.to_text() == text


@pytest.mark.parametrize("layout", list(non_canonical_copies(seeded_tiling_text(65, 5))))
def test_valid_files_never_reach_the_record_reader(layout, monkeypatch):
    # a well-formed Aztec file in any layout is held, through _canonical or
    # _integers and _fill: the line loop of families._records reads only
    # other regions and faulty files
    text = seeded_tiling_text(65, 5)
    copy = non_canonical_copies(text)[layout]

    def refused(*args):
        raise AssertionError("the record reader ran")

    monkeypatch.setattr(pathcomb.tilings, "_records", refused)
    t = TILING(copy)
    assert t._held is not None and t._held == TILING(text)._held
    assert t == TILING(text) and t.to_text() == text


@pytest.mark.parametrize("step", [(0, 1), (1, 0)], ids=["horizontal", "vertical"])
def test_a_pair_with_its_second_cell_first_is_no_domino(step):
    # a domino's line turned into the pair of its first cell and the cell
    # before it: read as the cells of its line it covers that cell twice,
    # though the first cell and the step alone name the domino of the file
    text = seeded_tiling_text(65, 5)
    cells = TILING(text).cells()
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        a, b, c, d = map(int, line.split())
        if (c - a, d - b) == step and (a - step[0], b - step[1]) in cells:
            break
    faulty = "".join(lines[:k] + [f"{a} {b} {a - step[0]} {b - step[1]}\n"] + lines[k + 1:])
    assert _canonical(faulty) is None
    with pytest.raises(pc.NotATiling, match="covered twice"):
        pc.tiling_to_family(TILING(faulty))


def test_an_empty_field_leaves_the_canonical_reader():
    # three single spaces but three fields on one line: the block holds
    # fewer dominoes than lines, so a cell stays uncovered
    lines = seeded_tiling_text(65, 5).splitlines(keepends=True)
    a, b, _, d = lines[5].split()
    text = "".join(lines[:5] + [f"{a} {b}  {d}\n"] + lines[6:])
    assert _canonical(text) is None
    with pytest.raises(pc.ParseError, match=r"tiling line must hold four integers \(line 6\)"):
        TILING(text)


@pytest.mark.parametrize("empty", [False, True], ids=["tail", "empty field and tail"])
def test_a_field_after_the_last_newline_leaves_the_canonical_reader(empty):
    # the line count is still the diamond's; with an empty field on one
    # line the count of fields is four a line again
    lines = seeded_tiling_text(65, 5).splitlines(keepends=True)
    if empty:
        a, b, _, d = lines[5].split()
        lines[5] = f"{a} {b}  {d}\n"
    text = "".join(lines) + "5"
    assert _canonical(text) is None
    line = 6 if empty else len(lines) + 1
    with pytest.raises(pc.ParseError, match=rf"tiling line must hold four integers \(line {line}\)"):
        TILING(text)


# every line boundary of str.splitlines, "\r\n" being one
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def detected(detect, text):
    try:
        return detect(text)
    except pc.ParseError as err:
        return str(err), err.line


@pytest.mark.parametrize("sep", LINE_BREAKS, ids=[repr(sep) for sep in LINE_BREAKS])
def test_detect_kind_stops_at_the_first_nonblank_line(sep):
    # blank lines, empty or holding whitespace and other line breaks, then
    # a first line of each kind or a bad one: the kind, or the message and
    # line number, of the reader that splits every line
    heads = ["", sep, sep * 3, f" {sep}\t{sep}", f"{sep}\u3000", "".join(LINE_BREAKS) + sep,
             " " * 5000 + sep, sep * 3000 + " " * 5000]
    firsts = ["1 2", " 1 2 \t", "3", "0 0 0 1", "1 2 3 4 5"]
    for head in heads:
        for first in firsts:
            for rest in ("", sep, f"{sep}1 2{sep}", f"{sep}x{sep}"):
                text = head + first + rest
                assert detected(DETECT, text) == detected(detect_kind_by_lines, text), text
    assert detected(DETECT, sep * 2 + "1 2" + sep) == ("cannot tell input kind from line '1 2'"
                                                       " (line 3)", 3)
    assert DETECT(sep * 2) == DETECT(sep + " ") == "tiling"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(("family", "tiling", "region")).flatmap(format_texts))
def test_detect_kind_of_fuzzed_text_matches_the_line_reader(text):
    assert detected(DETECT, text) == detected(detect_kind_by_lines, text)
