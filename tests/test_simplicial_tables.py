"""Pinned face and degeneracy tables of the weak-equivalence simplicial sets.

Each digest hashes the level sizes and every face and degeneracy index
table of one pointed simplicial set, so any change to how strings are
enumerated, reindexed, merged or padded with identities shows up here.
The digests were recorded from the hand-written face and degeneracy loops
that ``ws_diagonal``, ``weq_nerve`` and ``free_sigma_delta`` used before
they were built through one tabulator.
"""

import hashlib

import pytest

from chaintrace.sigma_delta import free_sigma_delta, weq_nerve
from chaintrace.waldhausen import SCategory, ws_diagonal
from chaintrace.wcat import category_from_selector


def as_tuples(tables: tuple) -> tuple:
    """Each level's index tables as tuples, the form the digests were recorded in."""
    return tuple(tuple(tuple(table) for table in level) for level in tables)


def table_digest(X) -> str:
    data = repr(([len(level) for level in X.levels], as_tuples(X.faces), as_tuples(X.degens)))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# selector: (ws_diagonal(C), weq_nerve(C, 2), weq_nerve(SCategory(C, 2), 1))
PINNED = {
    "trivial": ("7653481df117f7c2", "7653481df117f7c2", "4446c7ea49a2cd7b"),
    "vect_gf:2:1": ("baa779fc5333e560", "3493a205cf4e0871", "c40431039654898b"),
    "vect_gf:2:2": ("91ce5ae93a36aa7d", "18f79928f0ea5dc5", "52b34946430c7bb3"),
    "pointed_sets:2": ("70e2f1fb13fcb2a4", "c0cf50e3415e5d69", "2dd299d1e0c029d8"),
    "pointed_sets:3": ("faeab2a06bf56f63", "65cda80b142b59ff", "c8dc41ade8c44acd"),
    "finite_modules:2:4": ("396ece39b8c47a3c", "296025ccd03de495", "5176c8740466209b"),
}

FREE_PINNED = {
    (0, ()): "9f40bf2195d9be4d",
    (1, (0,)): "7653481df117f7c2",
    (1, (1,)): "9f40bf2195d9be4d",
    (1, (2,)): "b6b7917441aab928",
    (2, (0, 0)): "7653481df117f7c2",
    (2, (0, 1)): "7653481df117f7c2",
    (2, (0, 2)): "7653481df117f7c2",
    (2, (1, 0)): "7653481df117f7c2",
    (2, (1, 1)): "9f40bf2195d9be4d",
    (2, (1, 2)): "b6b7917441aab928",
    (2, (2, 0)): "7653481df117f7c2",
    (2, (2, 1)): "b6b7917441aab928",
    (2, (2, 2)): "398968c5d4d30bfa",
}


@pytest.mark.parametrize("selector", sorted(PINNED))
def test_string_tables_are_pinned(selector):
    C = category_from_selector(selector)
    diagonal, nerve, s2_nerve = PINNED[selector]
    assert table_digest(ws_diagonal(C)) == diagonal
    assert table_digest(weq_nerve(C, 2)) == nerve
    assert table_digest(weq_nerve(SCategory(C, 2), 1)) == s2_nerve


def test_free_entry_tables_are_pinned():
    d = free_sigma_delta(2)
    assert {key: table_digest(d.entry(key)) for key in d.keys} == FREE_PINNED
