"""Every parse-error message of the three file grammars, pinned.

One malformed text per distinct message of the algebra, group and
category parsers (the explicit-table reference checks included) and of the
``validate <file>`` dispatch, each with the exact error it must raise.
Every parse error that a line of the file causes names that line as
``<where>:<line>:``; whole-file conditions (a missing line, a table with
the wrong number of rows, objects without identities) name the file
alone.  Valid inputs are pinned too, by a digest of what they parse to.
"""

import hashlib
import os

import pytest

from chaintrace.cli import main
from chaintrace.tables import (
    parse_algebra_text,
    parse_category_file,
    parse_category_text,
    parse_group_text,
    serialize_category,
)
from chaintrace.wcat import category_from_selector

DATA = os.path.join(os.path.dirname(__file__), "data")

ALGEBRA = "algebra A\nbase Z\nbasis a b\nunit 1 0\n"
GROUP = "group G\nelements e a\n"
TABLE = (
    "category T\nbound 1\nobject z 0\nobject a 1\nzero z\n"
    "mor iz z z\nmor ia a a\nmor f z a\nmor g a z\nidentity z iz\nidentity a ia\n"
)

# id: (parser, text, "ErrorType: message")
CASES = {
    # algebra files
    "algebra-duplicate": (
        "algebra",
        "algebra A\nalgebra B\n",
        "InputParseError: <algebra>:2: duplicate algebra line",
    ),
    "algebra-arity": (
        "algebra",
        "algebra\n",
        "InputParseError: <algebra>:1: expected: algebra <name>",
    ),
    "base-duplicate": (
        "algebra",
        "base Z\nbase Q\n",
        "InputParseError: <algebra>:2: duplicate base line",
    ),
    "base-arity": ("algebra", "base Z Q\n", "InputParseError: <algebra>:1: expected: base <ring>"),
    "base-unknown-ring": (
        "algebra",
        "algebra A\nbase R\n",
        "InputParseError: <algebra>:2: unknown ring spec 'R'; expected Z, Q, Zmod:m, or GF:p",
    ),
    "base-bad-ring": (
        "algebra",
        "base GF:4\n",
        "InputParseError: <algebra>:1: bad ring spec 'GF:4': GF needs a prime modulus",
    ),
    "basis-duplicate": (
        "algebra",
        "basis a\nbasis b\n",
        "InputParseError: <algebra>:2: duplicate basis line",
    ),
    "basis-empty": (
        "algebra",
        "basis\n",
        "InputParseError: <algebra>:1: basis needs at least one name",
    ),
    "basis-name-twice": (
        "algebra",
        "basis a a\n",
        "InputParseError: <algebra>:1: duplicate basis name",
    ),
    "unit-duplicate": (
        "algebra",
        "unit 1\nunit 1\n",
        "InputParseError: <algebra>:2: duplicate unit line",
    ),
    "algebra-unknown-keyword": (
        "algebra",
        "algebra A\n\n# comment\nelements a\n",
        "InputParseError: <algebra>:4: unknown keyword 'elements' in an algebra file",
    ),
    "algebra-missing": (
        "algebra",
        "base Z\nbasis a\nunit 1\n",
        "InputParseError: <algebra>: missing algebra line",
    ),
    "base-missing": (
        "algebra",
        "algebra A\nbasis a\nunit 1\n",
        "InputParseError: <algebra>: missing base line",
    ),
    "basis-missing": (
        "algebra",
        "algebra A\nbase Z\nunit 1\n",
        "InputParseError: <algebra>: missing basis line",
    ),
    "unit-missing": (
        "algebra",
        "algebra A\nbase Z\nbasis a\n",
        "InputParseError: <algebra>: missing unit line",
    ),
    "unit-count": (
        "algebra",
        "unit 1\nalgebra A\nbase Z\nbasis a b\n",
        "InputParseError: <algebra>:1: unit needs 2 coefficients, got 1",
    ),
    "unit-coefficient": (
        "algebra",
        "algebra A\nbase Z\nbasis a\nunit x\n",
        "InputParseError: <algebra>:4: cannot parse 'x' as an element of Z",
    ),
    "mul-arity": (
        "algebra",
        ALGEBRA + "mul 0\n",
        "InputParseError: <algebra>:5: expected: mul <i> <j> <k>:<coeff> ...",
    ),
    "mul-index": (
        "algebra",
        ALGEBRA + "mul x 0\n",
        "InputParseError: <algebra>:5: expected a basis index, got 'x'",
    ),
    "mul-index-range": (
        "algebra",
        ALGEBRA + "mul 0 2\n",
        "InputParseError: <algebra>:5: basis index 2 out of range 0..1",
    ),
    "mul-duplicate": (
        "algebra",
        ALGEBRA + "mul 0 0 0:1\nmul 0 0\n",
        "InputParseError: <algebra>:6: duplicate mul line for (0, 0)",
    ),
    "mul-pair": (
        "algebra",
        ALGEBRA + "mul 0 0 01\n",
        "InputParseError: <algebra>:5: expected <k>:<coeff>, got '01'",
    ),
    "mul-target-twice": (
        "algebra",
        ALGEBRA + "mul 0 0 0:1 0:2\n",
        "InputParseError: <algebra>:5: duplicate target index 0 in mul line",
    ),
    "mul-coefficient": (
        "algebra",
        ALGEBRA + "mul 0 0 0:1/2\n",
        "InputParseError: <algebra>:5: cannot parse '1/2' as an element of Z",
    ),
    "algebra-not-unital": (
        "algebra",
        "algebra A\nbase Z\nbasis a\nunit 0\n",
        "ValidationError: A: unit fails on the left of a; unit fails on the right of a",
    ),
    # group files
    "group-duplicate": (
        "group",
        "group G\ngroup H\n",
        "InputParseError: <group>:2: duplicate group line",
    ),
    "group-arity": ("group", "group G H\n", "InputParseError: <group>:1: expected: group <name>"),
    "elements-duplicate": (
        "group",
        "elements e\nelements a\n",
        "InputParseError: <group>:2: duplicate elements line",
    ),
    "elements-empty": (
        "group",
        "elements\n",
        "InputParseError: <group>:1: elements needs at least one name",
    ),
    "element-name-twice": (
        "group",
        "elements e e\n",
        "InputParseError: <group>:1: duplicate element name",
    ),
    "table-first": (
        "group",
        "group G\ntable\n",
        "InputParseError: <group>:2: table must follow the elements line",
    ),
    "group-unknown-keyword": (
        "group",
        "group G\nbasis a\n",
        "InputParseError: <group>:2: unknown keyword 'basis' in a group file",
    ),
    "group-missing": (
        "group",
        "elements e\ntable\ne\n",
        "InputParseError: <group>: missing group line",
    ),
    "elements-missing": ("group", "group G\n", "InputParseError: <group>: missing elements line"),
    "table-rows": (
        "group",
        GROUP + "table\ne a\n",
        "InputParseError: <group>: table needs 2 rows, got 1",
    ),
    "table-row-length": (
        "group",
        GROUP + "table\ne a\na\n",
        "InputParseError: <group>:5: table row for a needs 2 entries, got 1",
    ),
    "table-entry": (
        "group",
        GROUP + "table\ne x\na e\n",
        "InputParseError: <group>:4: table entry 'x' is not an element",
    ),
    "table-no-identity": (
        "group",
        GROUP + "table\na a\na a\n",
        "ValidationError: <group>: multiplication table has no identity element",
    ),
    "group-no-inverse": (
        "group",
        GROUP + "table\ne a\na a\n",
        "ValidationError: G: a has no inverse",
    ),
    # category files: the line rules
    "category-duplicate": (
        "category",
        "category C\ncategory D\n",
        "InputParseError: <category>:2: duplicate category line",
    ),
    "category-arity": (
        "category",
        "category\n",
        "InputParseError: <category>:1: expected: category <name>",
    ),
    "family-arity": (
        "category",
        "family\n",
        "InputParseError: <category>:1: expected: family <selector>",
    ),
    "family-duplicate": (
        "category",
        "family trivial\nfamily trivial\n",
        "InputParseError: <category>:2: duplicate family line",
    ),
    "bound-arity": ("category", "bound\n", "InputParseError: <category>:1: expected: bound <B>"),
    "bound-duplicate": (
        "category",
        "bound 1\nbound 1\n",
        "InputParseError: <category>:2: duplicate bound line",
    ),
    "bound-integer": (
        "category",
        "bound x\n",
        "InputParseError: <category>:1: bound must be an integer, got 'x'",
    ),
    "object-arity": (
        "category",
        "object z\n",
        "InputParseError: <category>:1: expected: object <name> <size>",
    ),
    "object-integer": (
        "category",
        "object z x\n",
        "InputParseError: <category>:1: object size must be an integer, got 'x'",
    ),
    "zero-arity": ("category", "zero\n", "InputParseError: <category>:1: expected: zero <name>"),
    "zero-duplicate": (
        "category",
        "zero z\nzero z\n",
        "InputParseError: <category>:2: duplicate zero line",
    ),
    # a second once-only line of the wrong length is refused as a duplicate,
    # whatever its keyword (family, bound and zero checked the length first
    # when each grammar had its own loop)
    "family-duplicate-and-arity": ("category", "family a\nfamily\n", "InputParseError: <category>:2: duplicate family line"),
    "bound-duplicate-and-arity": ("category", "bound 1\nbound\n", "InputParseError: <category>:2: duplicate bound line"),
    "zero-duplicate-and-arity": ("category", "zero z\nzero\n", "InputParseError: <category>:2: duplicate zero line"),
    "base-duplicate-and-arity": ("algebra", "base Z\nbase\n", "InputParseError: <algebra>:2: duplicate base line"),
    "mor-arity": (
        "category",
        "mor f z\n",
        "InputParseError: <category>:1: expected: mor <name> <src> <dst>",
    ),
    "identity-arity": (
        "category",
        "identity z\n",
        "InputParseError: <category>:1: expected: identity <obj> <mor>",
    ),
    "identity-duplicate": (
        "category",
        "identity z iz\nidentity z iz\n",
        "InputParseError: <category>:2: duplicate identity line for 'z'",
    ),
    "cof-arity": ("category", "cof\n", "InputParseError: <category>:1: expected: cof <mor>"),
    "weq-arity": ("category", "weq f g\n", "InputParseError: <category>:1: expected: weq <mor>"),
    "compose-arity": (
        "category",
        "compose f g\n",
        "InputParseError: <category>:1: expected: compose <g> <f> <gf>",
    ),
    "compose-duplicate": (
        "category",
        "compose f g h\ncompose f g f\n",
        "InputParseError: <category>:2: duplicate compose line for ('f', 'g')",
    ),
    "pushout-arity": (
        "category",
        "pushout a b c d\n",
        "InputParseError: <category>:1: expected: pushout <i> <f> <d> <u> <v>",
    ),
    "category-unknown-keyword": (
        "category",
        "category C\nunit 1\n",
        "InputParseError: <category>:2: unknown keyword 'unit' in a category file",
    ),
    "category-missing": (
        "category",
        "family trivial\n",
        "InputParseError: <category>: missing category line",
    ),
    "family-with-table-lines": (
        "category",
        "category C\nfamily trivial\nbound 1\n",
        "InputParseError: <category>: family form does not take table lines",
    ),
    "family-unknown": (
        "category",
        "category C\nfamily nope:1\n",
        "InputParseError: <category>:2: unknown category selector 'nope:1'; expected trivial, vect_gf:q:bound, "
        "pointed_sets:bound, or finite_modules:p:bound",
    ),
    "family-bad-argument": (
        "category",
        "category C\nfamily vect_gf:4:1\n",
        "InputParseError: <category>:2: bad category selector 'vect_gf:4:1': GF needs a prime modulus",
    ),
    "bound-missing": (
        "category",
        "category C\nzero z\n",
        "InputParseError: <category>: missing bound line",
    ),
    "zero-missing": (
        "category",
        "category C\nbound 1\n",
        "InputParseError: <category>: missing zero line",
    ),
    # category files: references between the table lines
    "object-twice": (
        "category",
        TABLE + "object a 1\n",
        "InputParseError: <category>:12: duplicate object name",
    ),
    "zero-unknown": (
        "category",
        TABLE.replace("zero z", "zero q"),
        "InputParseError: <category>:5: zero object 'q' is not a listed object",
    ),
    "mor-twice": (
        "category",
        TABLE + "mor f a a\n",
        "InputParseError: <category>:12: duplicate morphism name",
    ),
    "mor-unknown-object": (
        "category",
        TABLE + "mor h a q\n",
        "InputParseError: <category>:12: morphism 'h' references an unknown object",
    ),
    "identity-unknown-object": (
        "category",
        TABLE + "identity q iz\n",
        "InputParseError: <category>:12: identity listed for unknown object 'q'",
    ),
    "identity-unknown-morphism": (
        "category",
        TABLE.replace("identity a ia", "identity a h"),
        "InputParseError: <category>:11: identity 'h' is not a listed morphism",
    ),
    "identity-not-endo": (
        "category",
        TABLE.replace("identity a ia", "identity a f"),
        "InputParseError: <category>:11: identity 'f' must be an endomorphism of 'a'",
    ),
    "objects-without-identities": (
        "category",
        TABLE.replace("identity a ia\n", ""),
        "InputParseError: <category>: objects without identities: ['a']",
    ),
    "compose-unknown": (
        "category",
        TABLE + "compose f iz h\n",
        "InputParseError: <category>:12: compose table references unknown morphism 'h'",
    ),
    "compose-not-composable": (
        "category",
        TABLE + "compose f f f\n",
        "InputParseError: <category>:12: compose entry ('f','f') is not composable",
    ),
    "compose-mismatched": (
        "category",
        TABLE + "compose g f ia\n",
        "InputParseError: <category>:12: compose entry ('g','f') has mismatched result",
    ),
    "cof-unknown": (
        "category",
        TABLE + "cof h\n",
        "InputParseError: <category>:12: flag references unknown morphism 'h'",
    ),
    "weq-unknown-after-cof": (
        "category",
        TABLE + "weq h\ncof k\n",
        "InputParseError: <category>:13: flag references unknown morphism 'k'",
    ),
    "pushout-unknown-morphism": (
        "category",
        TABLE + "pushout f f a h ia\n",
        "InputParseError: <category>:12: pushout line references unknown morphism 'h'",
    ),
    "pushout-unknown-object": (
        "category",
        TABLE + "pushout f f q ia ia\n",
        "InputParseError: <category>:12: pushout line references unknown object 'q'",
    ),
    "pushout-legs": (
        "category",
        TABLE + "pushout f g a ia ia\n",
        "InputParseError: <category>:12: pushout legs 'f', 'g' do not share a source",
    ),
    "pushout-u": (
        "category",
        TABLE + "pushout f f a g ia\n",
        "InputParseError: <category>:12: pushout map 'g' has wrong endpoints",
    ),
    "pushout-v": (
        "category",
        TABLE + "pushout f f a ia g\n",
        "InputParseError: <category>:12: pushout map 'g' has wrong endpoints",
    ),
    "pushout-twice": (
        "category",
        TABLE + "pushout f f a ia ia\npushout f f a ia ia\n",
        "InputParseError: <category>:13: duplicate pushout witness for ('f','f')",
    ),
    "bound-negative": (
        "category",
        TABLE.replace("bound 1", "bound -1"),
        "ValidationError: size bound must be nonnegative",
    ),
    "composition-missing": (
        "category",
        TABLE,
        "ValidationError: composition table has no entry for ('iz','iz')",
    ),
}

PARSERS = {"algebra": parse_algebra_text, "group": parse_group_text, "category": parse_category_text}


def outcome(parse, text):
    try:
        parse(text)
    except Exception as exc:  # the type is part of what is pinned
        return f"{type(exc).__name__}: {exc}"
    return "parsed"


@pytest.mark.parametrize("case", sorted(CASES))
def test_parse_error_message_is_pinned(case):
    parser, text, expected = CASES[case]
    assert outcome(PARSERS[parser], text) == expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty input file"),
        ("# only a comment\n\n", "{path}: empty input file"),
        ("\n# a comment\nobject a 1\n", "{path}: first keyword 'object' is not one of algebra, group, category"),
    ],
)
def test_validate_dispatch_messages_are_pinned(tmp_path, capsys, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error (parse): " + message.format(path=path) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


MINIMAL_ALGEBRA = "# the initial ring as an algebra over itself\nalgebra Zalg\nbase Z\nbasis e\nunit 1\nmul 0 0 0:1\n"
GROUP_C3 = "group C3\nelements e a b\ntable\ne a b\na b e\nb e a\n"

# sha256 of serialize_category(parsed table, labels=False)
CATEGORY_DIGESTS = {
    "corrupt_axiom1.txt": "c3684f150aacb403b422b93f8dbecf7d80d1d2008b673964ee5abec1972816b9",
    "corrupt_axiom2.txt": "4ff50681e727085cb4f128d517672c5e44c1f6f2bdb826356fb7f8480bcd5530",
    "corrupt_axiom3.txt": "ec5a6d10c6aa61dc691dd2669ee88ade6a1d52a9d63a61b8d56727b984b8eb39",
    "corrupt_axiom4.txt": "d42651f31af372ef93a6dc969ade0f355e8d369708825e619f40aa7e1a533bc4",
    "corrupt_axiom5.txt": "4ee122e9eafba08aab215a52154e1031dc21748831af888dc8b285104d2f3bc6",
    "pointed_sets:2": "654e3f4c0bccbe578c4ece104d6ac074f79d0b953daaa3225b77f707ec7305ac",
    "vect_gf:2:2": "e8bed785433676ea2d2da996db1488c2427ce799a6c8a4d4f3dcf3629002f72a",
    # the vect_gf:2:2 table with its lines in reverse order: every reference
    # is then forward, and the hom sets list their morphisms in reverse
    "reversed vect_gf:2:2": "9e8f18d2f47d05fb5fc676de9535511d48db3c067764411995d80ce332d3f47f",
}


@pytest.mark.parametrize("source", sorted(CATEGORY_DIGESTS))
def test_category_tables_parse_to_pinned_tables(source):
    if source.startswith("corrupt_axiom"):
        C = parse_category_file(os.path.join(DATA, source), validate=False)
    else:
        text = serialize_category(category_from_selector(source.split()[-1]))
        if source.startswith("reversed"):
            text = "".join(reversed(text.splitlines(keepends=True)))
        C = parse_category_text(text)
    assert digest(serialize_category(C, labels=False)) == CATEGORY_DIGESTS[source]


def test_algebra_and_group_files_parse_to_pinned_objects():
    A = parse_algebra_text(MINIMAL_ALGEBRA)
    G = parse_group_text(GROUP_C3)
    assert digest(repr((A.name, str(A.ring), A.basis_names, A.unit, A.table))) == (
        "cc547f35f5d5305a9a1fcc8a4a088a3e8f727fdc5933ae7242dc94fb7b5342f5"
    )
    assert digest(repr((G.name, G.table, G.identity, G.names))) == (
        "1b025fb21ba7d10e8f6be7494460f514741186b303e296655fb5d99ee5ad66df"
    )
