"""Terms over a many-sorted signature.

A term is one of:

* :class:`Var` — a typed free variable, like the ``q`` and ``i`` in the
  paper's Queue axioms;
* :class:`App` — an operation applied to argument terms, e.g.
  ``ADD(q, i)``;
* :class:`Lit` — a literal value imported from outside the algebra
  (identifier names, naturals, item payloads).  Literals let the
  parameter types of a schema (``Item``, ``Identifier``) have concrete
  inhabitants without axiomatising them;
* :class:`Err` — the paper's distinguished ``error`` value, one per sort,
  with the property that "the value of any operation applied to an
  argument list containing error is error";
* :class:`Ite` — the ``if-then-else`` construct used on axiom right-hand
  sides.  It is a polymorphic term former, not an operation of the
  signature, exactly as in the paper where it appears only in the
  metalanguage of axioms.

Terms are immutable and hashable; equality is structural.

Hash consing
------------

Term nodes are *interned*: construction goes through a per-process
weak-value table, so two structurally equal terms built anywhere in the
process are the **same object**.  Leaves are keyed structurally; an
application or conditional is keyed on its operation and the identities
of its (already interned) children.  Consequences the rest of the system
relies on:

* equality is identity-first (``a is b`` decides every comparison the
  rewrite engine makes between equal terms);
* ``hash``, ``size``, ``depth``, ``is_ground`` and ``contains_error``
  are computed once at construction from the children's cached values,
  so all five queries are O(1);
* rebuilding a term from existing pieces (substitution, rule
  application) yields maximal sharing for free — common subtrees are
  physically shared, and a rebuild that changes nothing returns the
  original node.

The table holds weak references: terms no longer reachable from client
code are garbage collected normally.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN, Sort, SortError

#: A position in a term: the path of argument indices from the root.
#: ``()`` is the root; ``(0, 2)`` is the third argument of the first
#: argument.  For :class:`Ite`, index 0 is the condition, 1 the then
#: branch and 2 the else branch.
Position = tuple[int, ...]


# ----------------------------------------------------------------------
# The intern table
# ----------------------------------------------------------------------
# A hand-rolled weak-value mapping rather than weakref.WeakValueDictionary:
# constructors probe and fill this table on every term built, and the
# raw-dict form saves a Python-level wrapper call on each of those
# operations.  Values are _Refs; a dead referent removes its own entry
# via _evict (the identity guard keeps a late callback from clobbering a
# re-interned replacement).
#
# Leaves (Var, Lit, Err) are keyed structurally.  The children of an App
# or Ite are themselves interned, so a node is keyed on its children's
# *identities*: ``(op, id(a1), ..., id(an))``.  The key never outlives
# the node (its entry is evicted when the node dies, and a live node
# keeps its children, and so their ids, alive), and building it calls no
# Python-level __hash__ on the children.


class _Ref(weakref.ref):
    """A weak reference that remembers its table key; unlike
    ``weakref.KeyedRef`` it has no Python-level constructor."""

    __slots__ = ("key",)


_TABLE: dict[tuple, _Ref] = {}

# Substrate counters, as bare one-element list cells so this bottom
# layer imports nothing from the observability layer: repro.obs.metrics
# adopts these slots into its global registry at import time.  A hit is
# a construction answered from the table; a miss allocated and interned
# a fresh node (a dead weakref counts as a miss — the node is rebuilt).
INTERN_HITS = [0]
INTERN_MISSES = [0]


def _evict(ref: _Ref, _table=_TABLE) -> None:
    if _table.get(ref.key) is ref:
        del _table[ref.key]


def _intern(key: tuple, node: "Term") -> None:
    INTERN_MISSES[0] += 1
    ref = _Ref(node, _evict)
    ref.key = key
    _TABLE[key] = ref


def intern_table_size() -> int:
    """Number of live interned terms — the process's peak-sharing gauge
    reported by the benchmark driver."""
    return len(_TABLE)


class Term:
    """Abstract base for all term node classes."""

    __slots__ = ("__weakref__",)

    #: The sort of the value this term denotes.
    sort: Sort

    # Cached structural metadata.  Leaf classes use these class-level
    # defaults; App/Ite shadow them with per-instance slots computed at
    # construction.  Reading the attribute directly (``term._size``) is
    # the hot path; the methods below are the public face.
    _size = 1
    _depth = 1
    _ground = True
    _haserr = False

    # -- structure -----------------------------------------------------
    def children(self) -> tuple["Term", ...]:
        """Immediate subterms, in position order."""
        raise NotImplementedError

    def with_children(self, children: Sequence["Term"]) -> "Term":
        """A copy of this node with ``children`` as immediate subterms."""
        raise NotImplementedError

    # -- queries ---------------------------------------------------------
    def is_ground(self) -> bool:
        """True when the term contains no variables.  O(1): cached at
        construction."""
        return self._ground

    def variables(self) -> set["Var"]:
        """The set of variables occurring in the term."""
        result: set[Var] = set()
        stack: list[Term] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                result.add(node)
            elif not node._ground:
                # Ground subtrees cannot contain variables: skip them.
                stack.extend(node.children())
        return result

    def size(self) -> int:
        """Number of nodes in the term.  O(1): cached at construction."""
        return self._size

    def depth(self) -> int:
        """Height of the term: a leaf has depth 1.  O(1): cached at
        construction."""
        return self._depth

    def subterms(self) -> Iterator[tuple[Position, "Term"]]:
        """Yield every ``(position, subterm)`` pair, preorder."""
        stack: list[tuple[Position, Term]] = [((), self)]
        while stack:
            pos, node = stack.pop()
            yield pos, node
            for i, child in enumerate(node.children()):
                stack.append((pos + (i,), child))

    def at(self, position: Position) -> "Term":
        """The subterm at ``position``."""
        node: Term = self
        for index in position:
            kids = node.children()
            if index >= len(kids):
                raise IndexError(f"no position {position} in {self}")
            node = kids[index]
        return node

    def replace_at(self, position: Position, replacement: "Term") -> "Term":
        """A copy of this term with ``replacement`` grafted at ``position``."""
        if not position:
            return replacement
        head, *rest = position
        kids = list(self.children())
        if head >= len(kids):
            raise IndexError(f"no position {position} in {self}")
        kids[head] = kids[head].replace_at(tuple(rest), replacement)
        return self.with_children(kids)

    def operations(self) -> set[Operation]:
        """All operation symbols occurring in the term."""
        result: set[Operation] = set()
        stack: list[Term] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, App):
                result.add(node.op)
            stack.extend(node.children())
        return result

    def contains_error(self) -> bool:
        """True when an :class:`Err` node occurs anywhere in the term.
        O(1): cached at construction."""
        return self._haserr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self})"


class Var(Term):
    """A typed free variable, e.g. ``symtab: Symboltable``."""

    __slots__ = ("name", "sort", "_hash")

    _ground = False

    def __new__(cls, name: str, sort: Sort) -> "Var":
        if not name:
            raise ValueError("variable name must be non-empty")
        key = (cls, name, sort)
        ref = _TABLE.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                INTERN_HITS[0] += 1
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.name = name
        self.sort = sort
        self._hash = hash(key)
        _intern(key, self)
        return self

    def __reduce__(self):
        return (Var, (self.name, self.sort))

    def children(self) -> tuple[Term, ...]:
        return ()

    def with_children(self, children: Sequence[Term]) -> Term:
        if children:
            raise ValueError("variables have no children")
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Var)
            and self.name == other.name
            and self.sort == other.sort
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


def _value_type(value: object) -> object:
    """A literal's identity beyond ``==``: ``type(value)``, except that
    a tuple's is the tuple of its elements' value types (tagged with the
    class for a tuple subclass such as a namedtuple), and a frozenset's
    pairs each element with its value type."""
    vtype = type(value)
    if isinstance(value, tuple):
        elements = tuple(map(_value_type, value))
        return elements if vtype is tuple else (vtype, elements)
    if isinstance(value, frozenset):
        return (vtype, frozenset((v, _value_type(v)) for v in value))
    return vtype


class Lit(Term):
    """A literal value of a parameter sort (Identifier names, Nats, ...).

    ``value`` must be hashable; two literals are equal when value, the
    value's type and sort agree (``True``, ``1`` and ``1.0`` compare
    equal in Python but are three literals).  Element types count inside
    tuples, tuple subclasses and frozensets, nested, so ``("x", True)``
    and ``("x", 1)`` are two literals, and so are ``frozenset({True})``
    and ``frozenset({1})``.
    """

    __slots__ = ("value", "sort", "_hash")

    def __new__(cls, value: object, sort: Sort) -> "Lit":
        vtype = type(value)
        if isinstance(value, (tuple, frozenset)):
            vtype = _value_type(value)
        key = (cls, vtype, value, sort)
        ref = _TABLE.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                INTERN_HITS[0] += 1
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.value = value
        self.sort = sort
        self._hash = hash(key)
        _intern(key, self)
        return self

    def __reduce__(self):
        return (Lit, (self.value, self.sort))

    def children(self) -> tuple[Term, ...]:
        return ()

    def with_children(self, children: Sequence[Term]) -> Term:
        if children:
            raise ValueError("literals have no children")
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Lit)
            and self.value == other.value
            and _value_type(self.value) == _value_type(other.value)
            and self.sort == other.sort
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


class Err(Term):
    """The distinguished ``error`` value of a sort.

    The paper introduces a single polymorphic ``error``; in a many-sorted
    setting it is one error constant per sort, all printed ``error``.
    """

    __slots__ = ("sort", "_hash")

    _haserr = True

    def __new__(cls, sort: Sort) -> "Err":
        key = (cls, sort)
        ref = _TABLE.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                INTERN_HITS[0] += 1
                return cached  # type: ignore[return-value]
        self = object.__new__(cls)
        self.sort = sort
        self._hash = hash(key)
        _intern(key, self)
        return self

    def __reduce__(self):
        return (Err, (self.sort,))

    def children(self) -> tuple[Term, ...]:
        return ()

    def with_children(self, children: Sequence[Term]) -> Term:
        if children:
            raise ValueError("error constants have no children")
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Err) and self.sort == other.sort

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "error"


class App(Term):
    """An operation applied to arguments: ``op(args...)``.

    Argument sorts are checked against the operation's domain at
    construction time, so ill-sorted terms cannot be built.  Sort
    checking only runs on an intern miss: a hit means the identical
    ``(op, args)`` combination was validated when first built.
    """

    __slots__ = ("op", "args", "sort", "_hash", "_size", "_depth", "_ground", "_haserr")

    def __new__(cls, op: Operation, args: Sequence[Term] = ()) -> "App":
        if type(args) is not tuple:
            args = tuple(args)
        # ``(op, *map(id, args))``, spelled out for the common arities:
        # the generic form costs three times as much.
        arity = len(args)
        if arity == 2:
            key = (op, id(args[0]), id(args[1]))
        elif arity == 1:
            key = (op, id(args[0]))
        elif arity == 0:
            key = (op,)
        else:
            key = (op, *map(id, args))
        ref = _TABLE.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                INTERN_HITS[0] += 1
                return cached  # type: ignore[return-value]
        if len(args) != op.arity:
            raise SortError(
                f"{op.name} expects {op.arity} argument(s), got {len(args)}"
            )
        size = 1
        depth = 0
        ground = True
        haserr = False
        hashes = [op._hash]
        for expected, arg in zip(op.domain, args):
            sort = arg.sort
            if sort is not expected and sort != expected:
                raise SortError(
                    f"{op.name}: argument {arg} has sort {sort}, "
                    f"expected {expected}"
                )
            hashes.append(arg._hash)
            size += arg._size
            if arg._depth > depth:
                depth = arg._depth
            if ground and not arg._ground:
                ground = False
            if not haserr and arg._haserr:
                haserr = True
        self = object.__new__(cls)
        self.op = op
        self.args = args
        self.sort = op.range
        self._hash = hash(tuple(hashes))
        self._size = size
        self._depth = depth + 1
        self._ground = ground
        self._haserr = haserr
        _intern(key, self)
        return self

    def __reduce__(self):
        return (App, (self.op, self.args))

    def children(self) -> tuple[Term, ...]:
        return self.args

    def with_children(self, children: Sequence[Term]) -> Term:
        return App(self.op, children)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, App)
            and self._hash == other._hash
            and self.op == other.op
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.args:
            return self.op.name
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op.name}({inner})"


class Ite(Term):
    """``if cond then then_branch else else_branch``.

    The condition must have sort Boolean and the branches must share a
    sort, which becomes the sort of the whole term.
    """

    __slots__ = (
        "cond",
        "then_branch",
        "else_branch",
        "sort",
        "_hash",
        "_size",
        "_depth",
        "_ground",
        "_haserr",
    )

    def __new__(cls, cond: Term, then_branch: Term, else_branch: Term) -> "Ite":
        key = (cls, id(cond), id(then_branch), id(else_branch))
        ref = _TABLE.get(key)
        if ref is not None:
            cached = ref()
            if cached is not None:
                INTERN_HITS[0] += 1
                return cached  # type: ignore[return-value]
        if cond.sort is not BOOLEAN and cond.sort != BOOLEAN:
            raise SortError(f"if-condition must be Boolean, got {cond.sort}")
        sort = then_branch.sort
        if else_branch.sort is not sort and else_branch.sort != sort:
            raise SortError(
                "if-branches must share a sort: "
                f"{sort} vs {else_branch.sort}"
            )
        self = object.__new__(cls)
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch
        self.sort = sort
        self._hash = hash(
            ("__ite__", cond._hash, then_branch._hash, else_branch._hash)
        )
        kids = (cond, then_branch, else_branch)
        self._size = 1 + sum(kid._size for kid in kids)
        self._depth = 1 + max(kid._depth for kid in kids)
        self._ground = all(kid._ground for kid in kids)
        self._haserr = any(kid._haserr for kid in kids)
        _intern(key, self)
        return self

    def __reduce__(self):
        return (Ite, (self.cond, self.then_branch, self.else_branch))

    def children(self) -> tuple[Term, ...]:
        return (self.cond, self.then_branch, self.else_branch)

    def with_children(self, children: Sequence[Term]) -> Term:
        cond, then_branch, else_branch = children
        return Ite(cond, then_branch, else_branch)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Ite)
            and self._hash == other._hash
            and self.cond == other.cond
            and self.then_branch == other.then_branch
            and self.else_branch == other.else_branch
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return (
            f"if {self.cond} then {self.then_branch} else {self.else_branch}"
        )


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def app(op: Operation, *args: Term) -> App:
    """``app(ADD, q, i)`` reads better than ``App(ADD, (q, i))``."""
    return App(op, args)


def var(name: str, sort: Sort) -> Var:
    return Var(name, sort)


def lit(value: object, sort: Sort) -> Lit:
    return Lit(value, sort)


def err(sort: Sort) -> Err:
    return Err(sort)


def ite(cond: Term, then_branch: Term, else_branch: Term) -> Ite:
    return Ite(cond, then_branch, else_branch)


def constructor_only(term: Term, constructors: set[Operation]) -> bool:
    """True when every operation in ``term`` is drawn from ``constructors``.

    Sufficient-completeness asks that terms of the type of interest reduce
    to constructor-only form; terms of other sorts must reduce to terms
    free of type-of-interest operations entirely.
    """
    return all(
        node.op in constructors
        for _, node in term.subterms()
        if isinstance(node, App)
    )


def map_terms(term: Term, fn: Callable[[Term], Optional[Term]]) -> Term:
    """Rebuild ``term`` bottom-up, replacing nodes where ``fn`` returns
    a term and keeping them where it returns ``None``."""
    kids = term.children()
    if kids:
        new_kids = [map_terms(kid, fn) for kid in kids]
        if all(new is old for new, old in zip(new_kids, kids)):
            rebuilt = term
        else:
            rebuilt = term.with_children(new_kids)
    else:
        rebuilt = term
    replacement = fn(rebuilt)
    return rebuilt if replacement is None else replacement


TermLike = Union[Term]
