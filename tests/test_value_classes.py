"""Value semantics of the package's record classes.

Each class compares field by field, is unequal to an instance of another
class, and keeps its constructor checks.  The immutable ones hash by value
too; the ones that callers fill in after construction are unhashable and
get fresh lists per instance.
"""

import pytest

from chaintrace.algebra import Algebra, AlgebraHom, NonUnitCertificate, base_algebra
from chaintrace.chain import FPAbelianGroup, FPModule, HomologyData
from chaintrace.cli import JobConfig
from chaintrace.errors import InputParseError
from chaintrace.general_linear import GeneralLinearData
from chaintrace.groups import FiniteGroup, cyclic_group
from chaintrace.linalg import Matrix, MembershipResult, SmithDecomposition, SparseMap
from chaintrace.morita import MoritaResult
from chaintrace.nerve import PointedSimplicialSet
from chaintrace.rings import GF, ZZ, BaseRing, Zmod
from chaintrace.sigma_delta import SigmaDeltaDiagram
from chaintrace.tracehomology import DennisTraceResult
from chaintrace.tracemaps import HomologyClass
from chaintrace.validation import ValidationReport
from chaintrace.waldhausen import K0Presentation
from chaintrace.wcat import pointed_sets

I2 = Matrix(ZZ, [[1, 0], [0, 1]])
G1 = FPAbelianGroup(1)
Z2 = FPAbelianGroup(0, (2,))
A = base_algebra(ZZ)
HOM = AlgebraHom(A, A, Matrix(ZZ, [[1]]))
C1 = pointed_sets(1)
GL = GeneralLinearData(cyclic_group(1), HOM)


def maker(cls, *args, **kwargs):
    return lambda: cls(*args, **kwargs)


# name: (make an instance, make one that differs in one field, hashable)
CASES = {
    "BaseRing": (maker(BaseRing, "Zmod", 4), maker(BaseRing, "Zmod", 8), True),
    "SparseMap": (
        maker(SparseMap, ZZ, 2, 1, (((0, 1),),)),
        maker(SparseMap, ZZ, 2, 1, (((1, 1),),)),
        True,
    ),
    "SmithDecomposition": (
        maker(SmithDecomposition, I2, I2, I2, I2, I2),
        maker(SmithDecomposition, I2, Matrix(ZZ, [[2, 0], [0, 1]]), I2, I2, I2),
        False,
    ),
    "MembershipResult": (
        maker(MembershipResult, True, (1, 0)),
        maker(MembershipResult, False, None, "row 0"),
        True,
    ),
    "FPAbelianGroup": (maker(FPAbelianGroup, 1, (2, 4)), maker(FPAbelianGroup, 1, (4,)), True),
    "FPModule": (maker(FPModule, GF(3), 2), maker(FPModule, GF(5), 2), True),
    "HomologyData": (
        maker(HomologyData, ZZ, 1, Z2, ((1,),), (2,)),
        maker(HomologyData, ZZ, 2, Z2, ((1,),), (2,)),
        False,
    ),
    "Algebra": (
        maker(Algebra, ZZ, ("1",), (1,), ((((0, 1),),),), "Z"),
        maker(Algebra, ZZ, ("1",), (1,), ((((0, 1),),),), "other"),
        True,
    ),
    "AlgebraHom": (maker(AlgebraHom, A, A, Matrix(ZZ, [[1]])), maker(AlgebraHom, A, A, Matrix(ZZ, [[-1]])), False),
    "FiniteGroup": (
        maker(FiniteGroup, ((0,),), 0, ("e",), "trivial"),
        maker(FiniteGroup, ((0,),), 0, ("1",), "trivial"),
        True,
    ),
    "GeneralLinearData": (
        maker(GeneralLinearData, cyclic_group(1), HOM),
        maker(GeneralLinearData, cyclic_group(2), HOM),
        False,
    ),
    "NonUnitCertificate": (maker(NonUnitCertificate, "zero"), maker(NonUnitCertificate, "two"), True),
    "HomologyClass": (maker(HomologyClass, 1, (1,), (0, 1), Z2), maker(HomologyClass, 1, (0,), (0, 1), Z2), True),
    "MoritaResult": (
        maker(MoritaResult, 0, G1, G1, True, True),
        maker(MoritaResult, 0, G1, G1, True, False),
        False,
    ),
    "DennisTraceResult": (
        maker(DennisTraceResult, 1, GL, G1, G1, ()),
        maker(DennisTraceResult, 2, GL, G1, G1, ()),
        False,
    ),
    "PointedSimplicialSet": (
        maker(PointedSimplicialSet, "X", (("*", "a"),), ((),), ((),)),
        maker(PointedSimplicialSet, "Y", (("*", "a"),), ((),), ((),)),
        False,
    ),
    "K0Presentation": (
        maker(K0Presentation, C1, (1,), (), None),
        maker(K0Presentation, C1, (1,), ((1,),), None),
        False,
    ),
    "ValidationReport": (maker(ValidationReport, "s", 2), maker(ValidationReport, "s", 3), False),
    "SigmaDeltaDiagram": (
        maker(SigmaDeltaDiagram, "D", {}, [], None),
        maker(SigmaDeltaDiagram, "D", {(0, ()): None}, [], None),
        False,
    ),
    "JobConfig": (maker(JobConfig, "hh", ("Z",)), maker(JobConfig, "hh", ("Q",)), False),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_is_field_wise(name):
    make, differ, _ = CASES[name]
    a, b, c = make(), make(), differ()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c


@pytest.mark.parametrize("name", CASES)
def test_unequal_to_another_class(name):
    make, _, _ = CASES[name]
    other = CASES["NonUnitCertificate" if name != "NonUnitCertificate" else "BaseRing"][0]()
    assert make() != other
    assert make() != object()


@pytest.mark.parametrize("name", [n for n, case in CASES.items() if case[2]])
def test_immutable_values_hash_by_value(name):
    make, _, _ = CASES[name]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize(
    "name", ["HomologyData", "DennisTraceResult", "PointedSimplicialSet", "K0Presentation",
             "ValidationReport", "SigmaDeltaDiagram", "JobConfig"]
)
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(CASES[name][0]())


def test_repr_lists_the_fields():
    assert repr(Zmod(4)) == "BaseRing(kind='Zmod', modulus=4)"
    assert repr(Z2) == "FPAbelianGroup(free_rank=0, invariant_factors=(2,))"
    assert repr(ValidationReport("s")) == "ValidationReport(subject='s', checks_run=0, issues=[], skipped=[])"
    assert repr(HomologyData(ZZ, 1, Z2, (), (), len, len)) == (
        f"HomologyData(ring={ZZ!r}, degree=1, group={Z2!r}, generators=(), orders=())"
    )


def test_constructor_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"^invariant factors must form a divisibility chain, got \(3, 4\)$"):
        FPAbelianGroup(0, (3, 4))
    with pytest.raises(ValueError, match="invariant factors must be >= 2"):
        FPAbelianGroup(0, (1,))
    with pytest.raises(ValueError, match="free rank must be >= 0"):
        FPAbelianGroup(-1)
    with pytest.raises(ValueError, match="is not a field"):
        FPModule(ZZ, 1)
    with pytest.raises(ValueError, match="GF needs a prime modulus"):
        BaseRing("GF", 4)
    with pytest.raises(ValueError, match="Z takes no modulus"):
        BaseRing("Z", 3)
    with pytest.raises(InputParseError, match="--size must be >= 1"):
        JobConfig("morita", size=0)
    assert JobConfig("hh", ["Z"]).inputs == ("Z",)


def test_reports_and_diagrams_get_fresh_lists():
    a, b = ValidationReport("a"), ValidationReport("b")
    a.record("broken")
    a.skip("too big")
    assert b.issues == [] and b.skipped == []
    skips: list = []
    d1 = SigmaDeltaDiagram("D", {}, skips, None)
    d2 = SigmaDeltaDiagram("D", {}, skips, None)
    d1.skips.append("x")
    assert d2.skips == []
