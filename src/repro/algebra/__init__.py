"""Many-sorted algebra substrate.

This package provides the mathematical foundation Guttag's technique is
built on (the heterogeneous algebras of Birkhoff and Lipson): sorts,
signatures, terms, substitutions, matching and unification.
"""

from repro.algebra.sorts import BOOLEAN, NAT, Sort, SortError
from repro.algebra.signature import (
    Operation,
    Signature,
    SignatureError,
    make_signature,
)
from repro.algebra.terms import (
    App,
    Err,
    Ite,
    Lit,
    Position,
    Term,
    Var,
    app,
    constructor_only,
    err,
    intern_table_size,
    ite,
    lit,
    map_terms,
    var,
)
from repro.algebra.substitution import EMPTY, Substitution
from repro.algebra.matching import find_matches, is_instance_of, match, matches, variant_of
from repro.algebra.unification import rename_apart, unify

__all__ = [
    "BOOLEAN",
    "NAT",
    "Sort",
    "SortError",
    "Operation",
    "Signature",
    "SignatureError",
    "make_signature",
    "App",
    "Err",
    "Ite",
    "Lit",
    "Position",
    "Term",
    "Var",
    "app",
    "constructor_only",
    "err",
    "intern_table_size",
    "ite",
    "lit",
    "map_terms",
    "var",
    "EMPTY",
    "Substitution",
    "find_matches",
    "is_instance_of",
    "match",
    "matches",
    "variant_of",
    "rename_apart",
    "unify",
]
