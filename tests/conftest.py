"""Shared test settings.

Property tests run under a fixed hypothesis profile: derandomized, so every
run draws the same examples, with a bounded example count and no per-example
deadline, so the suite stays reproducible and its run time predictable.  A
second profile, ``chaintrace-fuzz``, is the same with 2,000 examples.

Every chain complex a test builds is also checked against its reduced core
when the test ends: homology() of the complex and of reduce_complex() of it
must give the same group in every degree.  The dense oracle is skipped in a
degree whose two boundaries exceed ORACLE_CELLS dense entries, because that
elimination is what reduce_complex exists to avoid; those degrees are held
by the closed-form tests instead (Burghelea's splitting, frozen tables).
Each differential of such a complex with at most REFERENCE_CELLS entries
is also eliminated by the reference engine of tests/smith_reference.py,
and the five Smith factors must agree with smith_normal_form's.  Over Z/m
the two integer matrices homology() eliminates for it are compared instead:
its symmetric lift to Z, in (-m/2, m/2], and lift_with_modulus of it,
which lifts the same way.
"""

import pytest

from chaintrace.chain import ChainComplex, homology
from chaintrace.errors import UnsupportedRingError
from chaintrace.reduction import reduce_complex
from smith_reference import assert_same_factors, smith_inputs

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("chaintrace", derandomize=True, max_examples=100, deadline=None, database=None)
    # the CI fuzz step runs tests/test_parser_fuzz.py under this one, through
    # pytest's --hypothesis-profile=chaintrace-fuzz
    settings.register_profile("chaintrace-fuzz", settings.get_profile("chaintrace"), max_examples=2000)
    settings.load_profile("chaintrace")

ORACLE_CELLS = 20_000
REFERENCE_CELLS = 20_000
_matched_reference: set = set()  # differentials already compared, across tests


def _outcome(complex_, n):
    try:
        return homology(complex_, n).group
    except UnsupportedRingError:  # Z/m with composite m: both sides refuse
        return UnsupportedRingError


def assert_core_matches(complex_, max_cells=None):
    """reduce_complex(complex_) is no larger and has the same groups in every degree."""
    core = reduce_complex(complex_)
    assert core.top_degree == complex_.top_degree
    assert all(a <= b for a, b in zip(core.ranks, complex_.ranks)), (core.ranks, complex_.ranks)
    for n in range(complex_.top_degree):
        # d_n and d_{n+1}, the latter lifted with m*I over Z/m
        lift = complex_.rank(n) if complex_.ring.kind == "Zmod" else 0
        cells = complex_.rank(n) * (complex_.rank(n - 1) + complex_.rank(n + 1) + lift)
        if max_cells is not None and cells > max_cells:
            continue
        assert _outcome(core, n) == _outcome(complex_, n), (n, complex_.ranks, core.ranks)


@pytest.fixture(autouse=True)
def every_complex_matches_its_core():
    built = []
    init = ChainComplex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    ChainComplex.__init__ = recording_init
    try:
        yield
    finally:
        ChainComplex.__init__ = init
    for complex_ in built:
        assert_core_matches(complex_, max_cells=ORACLE_CELLS)
        for d in complex_.differentials.values():
            if d.nrows * d.ncols <= REFERENCE_CELLS and d not in _matched_reference:
                for mat in smith_inputs(d.to_matrix()):
                    assert_same_factors(mat)
                _matched_reference.add(d)
