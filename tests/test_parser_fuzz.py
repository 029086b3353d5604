"""Fuzz of the three file parsers and of the CLI on files.

Texts are drawn line by line from the grammar of one of the algebra, group
and category formats, with arguments from small pools (ring specs, element
literals, basis indices, k:coeff pairs, names that refer to each other)
that hold malformed values too, and with noise lines mixed in.
Whatever the text, the parsers may raise only the package's own errors,
and the CLI on the text as a file must answer with an exit code from 0 to
4, never 5 (internal error) and never a traceback.  Family selectors are
kept small so that a text which parses stays cheap to validate.
"""

import contextlib
import io
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from chaintrace.cli import main  # noqa: E402
from chaintrace.errors import ChainTraceError  # noqa: E402
from chaintrace.tables import (  # noqa: E402
    parse_algebra_text,
    parse_category_text,
    parse_group_text,
)

RINGS = ("Z", "Q", "GF:2", "GF:3", "Zmod:4", "GF:4", "Zmod:1", "Zmod:x", "R")
ELEMENTS = ("0", "1", "-1", "2", "3", "1/2", "2/0", "x", "")
NAMES = ("a", "b", "c")
OBJECTS = ("z", "a", "b")
ARROWS = ("iz", "ia", "ib", "f", "g", "h")
FAMILIES = (
    "trivial", "vect_gf:2:1", "pointed_sets:1", "pointed_sets:2", "finite_modules:2:2",
    "vect_gf:4:1", "vect_gf:2", "pointed_sets:-1", "nope:1",
)
INTS = ("-1", "0", "1", "2", "3", "x")

pick = st.sampled_from
mostly = pick((True,) * 7 + (False,))  # keep a required line 7 times in 8


@st.composite
def fuzzed(draw, header, body, max_body):
    """Header lines (each kept most of the time), body lines, maybe noise, shuffled or not."""
    out = [draw(x) for x in header if draw(mostly)]
    out += draw(st.lists(body, max_size=max_body))
    if not draw(mostly):
        out.insert(draw(st.integers(0, len(out))), draw(noise))
    if not draw(mostly):
        out = draw(st.permutations(out))
    return "\n".join(out)


def line(*parts):
    return st.tuples(*parts).map(" ".join)


def some(pool, lo=0, hi=3):
    return st.lists(pick(pool), min_size=lo, max_size=hi).map(" ".join)


noise = st.lists(st.one_of(pick(ELEMENTS + NAMES + ("#", "mul", "object")), st.text(max_size=4)), max_size=4).map(
    " ".join
)
pairs = st.tuples(pick(INTS[1:4] + ("5", "x", "")), pick(ELEMENTS)).map(":".join)
algebra_texts = fuzzed(
    [
        line(st.just("algebra"), pick(NAMES)),
        line(st.just("base"), pick(RINGS)),
        line(st.just("basis"), pick(("a", "a b", "a b c", "a a"))),
        line(st.just("unit"), some(ELEMENTS[:4], 1, 3)),
    ],
    line(st.just("mul"), pick(INTS), pick(INTS), st.lists(pairs, max_size=3).map(" ".join)),
    6,
)
group_texts = fuzzed(
    [
        line(st.just("group"), pick(NAMES)),
        line(st.just("elements"), pick(("a", "a b", "a b c", "b a"))),
        st.just("table"),
    ],
    some(NAMES, 1, 3),
    4,
)
category_texts = st.one_of(
    fuzzed([line(st.just("category"), pick(NAMES)), line(st.just("family"), pick(FAMILIES))], noise, 1),
    fuzzed(
        [
            line(st.just("category"), pick(NAMES)),
            line(st.just("bound"), pick(INTS)),
            line(st.just("object"), st.just("z"), st.just("0")),
            line(st.just("zero"), pick(OBJECTS)),
            line(st.just("mor"), st.just("iz"), st.just("z"), st.just("z")),
            line(st.just("identity"), st.just("z"), st.just("iz")),
        ],
        st.one_of(
            line(st.just("object"), pick(OBJECTS), pick(INTS)),
            line(st.just("mor"), pick(ARROWS), pick(OBJECTS), pick(OBJECTS)),
            line(st.just("identity"), pick(OBJECTS), pick(ARROWS)),
            line(pick(("cof", "weq")), pick(ARROWS)),
            line(st.just("compose"), pick(ARROWS), pick(ARROWS), pick(ARROWS)),
            line(st.just("pushout"), *[pick(ARROWS)] * 5),
        ),
        14,
    ),
)
texts = st.one_of(algebra_texts, group_texts, category_texts)


@pytest.mark.parametrize(
    "parse", (parse_algebra_text, parse_group_text, parse_category_text), ids=lambda f: f.__name__
)
@hypothesis.given(text=texts, validate=st.booleans())
def test_parsers_raise_only_package_errors(parse, text, validate):
    try:
        parse(text, validate=validate)
    except ChainTraceError:
        pass


@hypothesis.given(text=texts, command=st.sampled_from(("validate", "hh", "k0", "group-homology")))
def test_cli_on_a_file_never_exits_internal(text, command):
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, path] + (["--max-degree", "1"] if command in ("hh", "group-homology") else [])
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = main(argv)
    assert status in (0, 2, 3, 4), sink.getvalue()
