"""tatedual: exact arithmetic for the p-adic / UHF duality toolchain.

Everything is computed over exact integers and rationals: fixed-precision
p-adic residues and their canonical sequences, the rational subgroup
spanned by their scaled residues, supernatural-number K0 invariants with
the stable-isomorphism decision, Tate curve coefficients to a proven
truncation depth, and the finite-level Pontryagin pairing.  A residue
mod p**N is held as one canonical integer, so every ring operation is a
single big-integer operation; base-p digits are derived only when asked for.
"""

__version__ = "0.1.0"
