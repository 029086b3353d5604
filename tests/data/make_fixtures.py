"""Regenerate the corrupted category fixtures.

Each fixture starts from the serialized table of vect_gf(2, 2) and applies
one surgical edit that breaks exactly one Waldhausen axiom:

* corrupt_axiom1.txt: the cofibration flag of a non-identity isomorphism of
  F2^2 is dropped (one that is never the cobase-change leg of a recorded
  pushout, so only axiom 1 can notice).
* corrupt_axiom2.txt: the cofibration flag of the map 0 -> F2^2 is dropped.
  Every witness whose cobase-change leg is that map has it as its own
  cofibration leg too, so those rows are skipped and only axiom 2 fires.
* corrupt_axiom3.txt: the pushout witness of F2 <- 0 -> F2 is deleted while
  the pushout still exists within the bound.
* corrupt_axiom4.txt: the cofibration flag of the cobase-change leg of that
  same witness (an injection F2 -> F2^2) is dropped.  The leg is neither an
  isomorphism nor a map out of zero, so only axiom 4 can notice.
* corrupt_axiom5.txt: every non-isomorphism endomorphism of F2^2 is flagged
  as a weak equivalence.  The validator has no closure checks, but the
  gluing axiom now compares genuinely inequivalent pushout data: a rank-1
  endomorphism fixing the image of F2 >-> F2^2 induces the zero map on the
  cokernel F2, which is not flagged.

Run as a script to rewrite the .txt files in place; it refuses to write a
fixture whose validation report does not single out the intended axiom.
"""

from __future__ import annotations

import os
import re
import sys

from chaintrace.tables import parse_category_text, serialize_category
from chaintrace.wcat import validate_waldhausen, vect_gf

HERE = os.path.dirname(os.path.abspath(__file__))


def _names(C):
    """Replicate the serializer's canonical morphism naming."""
    mname = {}
    for a in range(C.object_count()):
        for b in range(C.object_count()):
            for m in C.hom_ids(a, b):
                mname[m] = f"m{len(mname)}"
    return mname


def _drop_line(text: str, line_re: str) -> str:
    pat = re.compile(line_re)
    kept, hits = [], 0
    for line in text.splitlines():
        if pat.match(line):
            hits += 1
            continue
        kept.append(line)
    if hits != 1:
        raise SystemExit(f"expected exactly one line matching {line_re!r}, found {hits}")
    return "\n".join(kept) + "\n"


def build_fixtures():
    C = vect_gf(2, 2)
    base = serialize_category(C, labels=True)
    mname = _names(C)
    o2 = next(a for a in range(C.object_count()) if C.object_size(a) == 2)
    zero = C.zero_index()

    cobase_legs = set()
    for a in range(C.object_count()):
        for b in range(C.object_count()):
            for i in C.hom_ids(a, b):
                if not C.is_cofibration_id(i):
                    continue
                for c in range(C.object_count()):
                    for f in C.hom_ids(C.mor_source(i), c):
                        w = C.pushout_witness(i, f)
                        if w is not None:
                            cobase_legs.add(w[2])

    id2 = C.identity_id(o2)
    iso = next(
        m
        for m in C.hom_ids(o2, o2)
        if m != id2 and C.iso_inverse(m) is not None and m not in cobase_legs
    )
    zero_to_o2 = C.hom_ids(zero, o2)[0]
    zero_to_f2 = C.hom_ids(zero, next(a for a in range(3) if C.object_size(a) == 1))[0]
    w = C.pushout_witness(zero_to_f2, zero_to_f2)
    cobase = w[2]

    non_iso_endos = [
        m for m in C.hom_ids(o2, o2) if C.iso_inverse(m) is None
    ]

    fixtures = {
        "corrupt_axiom1.txt": (
            _drop_line(base, rf"cof {mname[iso]}$"),
            "axiom 1",
        ),
        "corrupt_axiom2.txt": (
            _drop_line(base, rf"cof {mname[zero_to_o2]}$"),
            "axiom 2",
        ),
        "corrupt_axiom3.txt": (
            _drop_line(base, rf"pushout {mname[zero_to_f2]} {mname[zero_to_f2]} "),
            "axiom 3",
        ),
        "corrupt_axiom4.txt": (
            _drop_line(base, rf"cof {mname[cobase]}$"),
            "axiom 4",
        ),
        "corrupt_axiom5.txt": (
            base + "".join(f"weq {mname[m]}\n" for m in non_iso_endos),
            "axiom 5",
        ),
    }
    return fixtures


def main():
    for fname, (text, axiom) in build_fixtures().items():
        cat = parse_category_text(text, where=fname, validate=False)
        report = validate_waldhausen(cat)
        if report.ok:
            raise SystemExit(f"{fname}: expected a validation failure, got none")
        if not all(axiom in msg for msg in report.issues):
            raise SystemExit(
                f"{fname}: expected only {axiom!r} issues, got {report.issues}"
            )
        with open(os.path.join(HERE, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{fname}: {len(report.issues)} issue(s), all {axiom}")


if __name__ == "__main__":
    sys.exit(main())
