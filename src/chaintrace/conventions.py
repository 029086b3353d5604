"""Conventions and caps that pin down every number the engine prints.

The structured output's ``conventions`` block is made of these constants
(formats.conventions_block), and the modules that enforce them import them
from here, so rendering an envelope loads no compute module.  No function
takes a cap as a parameter: each is read from its constant where it is
enforced, so the block reports the caps every computation ran under.
"""

__all__ = [
    "B_CONVENTION",
    "PIVOT_RULE",
    "LEVEL_CAP",
    "DEGREE_CAP",
    "GROUP_ORDER_CAP",
    "PUSHOUT_SEARCH_CAP",
]

# Connes' operator and the Hochschild boundary (hochschild, cyclic).
B_CONVENTION = "B = (1 - (-1)^q t) s_e N on the normalized complex; b = sum (-1)^i d_i; d_q merges last onto first"

# Smith normal form pivot choice (linalg.smith_normal_form).  The string is
# kept byte for byte, because every structured envelope prints it and pinned
# output hashes cover it.  Its Z/p^k clause no longer applies: Smith runs
# over Z and fields only, and every Z/m elimination runs on the integer lift.
PIVOT_RULE = (
    "pivot of smallest measure (|x| over Z, p-adic valuation over Z/p^k, any "
    "nonzero over a field), ties broken row-major; diagonal normalized to "
    "canonical unit multiples"
)

# Largest level rank a Hochschild, cyclic or bar complex builds (hochschild,
# grouphomology, trace), and of a full cyclic bar level that is enumerated
# (hochschild.check_full_level): a whole-level operator, trace.multitrace's
# source and trace-k1's level 1 of M_n(A).  Classes are sparse chains, so
# trace-homology and morita push generators through the chain maps
# (chain.push) and build no full level.
LEVEL_CAP = 500_000

# Largest group-homology degree the Dennis trace on group homology accepts
# (tracehomology.dennis_trace_homology), and largest GL_n(A) order enumerated
# (general_linear.unit_group, which refuses at the first unit past it).
DEGREE_CAP = 3
GROUP_ORDER_CAP = 24

# Steps a brute-force pushout search may take (wcat.WCategory.find_pushout).
PUSHOUT_SEARCH_CAP = 2_000_000
