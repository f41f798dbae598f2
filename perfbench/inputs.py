"""Seeded inputs and the independent reference answers.

Everything the program under test receives is generated here from the
run's seed.  A term is a plain tuple ``(OP, arg, ...)`` and a literal
is a Python ``str``; :func:`render_text` turns a tuple into the DSL's
concrete syntax and ``run.py`` turns it into ``repro`` terms for the
wire.  The reference models below share no code with ``repro``: Queue
and Stack are Python lists, Array is a dict and Symboltable is a list
of dicts (one per open block).  Verify jobs carry their known answer
with them.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent / "specs" / "paper.spec"

ERROR = "<error>"

#: Constructors of each paper type; every other operation whose first
#: argument is the type is an observer or an extension.
CONSTRUCTORS = {
    "Queue": ("NEW", "ADD"),
    "Symboltable": ("INIT", "ENTERBLOCK", "ADD"),
    "Stack": ("NEWSTACK", "PUSH"),
    "Array": ("EMPTY", "ASSIGN"),
}


def rng_for(seed: int, workload: str, index: int) -> random.Random:
    """One generator per input, so input ``index`` of a seed is the
    same whatever ran before it (warm-up length, thread interleaving)."""
    return random.Random(f"{seed}:{workload}:{index}")


# ----------------------------------------------------------------------
# Terms as tuples
# ----------------------------------------------------------------------
def render_text(term, quote: bool = True) -> str:
    """DSL text of a tuple term.  Literals are quoted values, or with
    ``quote=False`` the names of client-program inputs."""
    if isinstance(term, str):
        return f"'{term}'" if quote else term
    op, args = term[0], term[1:]
    if not args:
        return op
    return f"{op}({', '.join(render_text(a, quote) for a in args)})"


def nest(op: str, term, times: int):
    for _ in range(times):
        term = (op, term)
    return term


# ----------------------------------------------------------------------
# Reference models
# ----------------------------------------------------------------------
def _strict(fn):
    def apply(*args):
        if any(a is ERROR for a in args):
            return ERROR
        return fn(*args)

    return apply


def _leave(scopes):
    return scopes[:-1] if len(scopes) > 1 else ERROR


def _retrieve(scopes, ident):
    for scope in reversed(scopes):
        if ident in scope:
            return scope[ident]
    return ERROR


def _add_symbol(scopes, ident, attrs):
    top = dict(scopes[-1])
    top[ident] = attrs
    return scopes[:-1] + (top,)


_MODELS = {
    "Queue": {
        "NEW": lambda: (),
        "ADD": lambda q, i: q + (i,),
        "FRONT": lambda q: q[0] if q else ERROR,
        "REMOVE": lambda q: q[1:] if q else ERROR,
        "IS_EMPTY?": lambda q: not q,
    },
    "Stack": {
        "NEWSTACK": lambda: (),
        "PUSH": lambda s, e: s + (e,),
        "POP": lambda s: s[:-1] if s else ERROR,
        "TOP": lambda s: s[-1] if s else ERROR,
        "IS_NEWSTACK?": lambda s: not s,
        "REPLACE": lambda s, e: s[:-1] + (e,) if s else ERROR,
    },
    "Array": {
        "EMPTY": lambda: (),
        "ASSIGN": lambda a, i, v: a + ((i, v),),
        "READ": lambda a, i: dict(a).get(i, ERROR),
        "IS_UNDEFINED?": lambda a, i: i not in dict(a),
    },
    "Symboltable": {
        "INIT": lambda: ({},),
        "ENTERBLOCK": lambda s: s + ({},),
        "LEAVEBLOCK": _leave,
        "ADD": _add_symbol,
        "IS_INBLOCK?": lambda s, i: i in s[-1],
        "RETRIEVE": _retrieve,
    },
}
_STRICT = {
    spec: {op: _strict(fn) for op, fn in ops.items()}
    for spec, ops in _MODELS.items()
}


def reference(spec: str, term, rename=None):
    """The model's value of ``term``: a literal, a bool or ERROR.
    ``rename`` maps literals first (identifier partitions)."""
    ops = _STRICT[spec]
    # Iterative post-order: serve-batch terms nest ~100 deep.
    stack, values = [(term, False)], []
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, str):
            values.append(rename.get(node, node) if rename else node)
        elif expanded:
            arity = len(node) - 1
            args = values[len(values) - arity:] if arity else []
            del values[len(values) - arity:]
            values.append(ops[node[0]](*args))
        else:
            stack.append((node, True))
            stack.extend((arg, False) for arg in reversed(node[1:]))
    return values[0]


# ----------------------------------------------------------------------
# serve-small: shallow ground observations on fresh payloads
# ----------------------------------------------------------------------
SERVE_SPECS = ("Queue", "Symboltable", "Stack", "Array")


def _shallow(spec: str, rng: random.Random, fresh: str):
    def lit(kind: str, n: int) -> str:
        return f"{kind}{fresh}x{n}"

    if spec == "Queue":
        q = ("NEW",)
        for n in range(rng.randint(0, 4)):
            q = ("ADD", q, lit("i", n))
        return rng.choice(
            [("FRONT", q), ("IS_EMPTY?", q), ("FRONT", ("REMOVE", q)),
             ("IS_EMPTY?", ("REMOVE", q))]
        )
    if spec == "Stack":
        s = ("NEWSTACK",)
        for n in range(rng.randint(0, 4)):
            s = ("PUSH", s, lit("e", n))
        return rng.choice(
            [("TOP", s), ("IS_NEWSTACK?", s), ("TOP", ("POP", s)),
             ("TOP", ("REPLACE", s, lit("e", 9)))]
        )
    if spec == "Array":
        a = ("EMPTY",)
        for n in range(rng.randint(0, 4)):
            a = ("ASSIGN", a, lit("k", rng.randint(0, 2)), lit("v", n))
        probe = lit("k", rng.randint(0, 2))
        return rng.choice([("READ", a, probe), ("IS_UNDEFINED?", a, probe)])
    t = ("INIT",)
    for n in range(rng.randint(1, 5)):
        if rng.random() < 0.3:
            t = ("ENTERBLOCK", t)
        else:
            t = ("ADD", t, lit("k", rng.randint(0, 2)), lit("a", n))
    probe = lit("k", rng.randint(0, 2))
    return rng.choice(
        [("RETRIEVE", t, probe), ("IS_INBLOCK?", t, probe),
         ("RETRIEVE", ("LEAVEBLOCK", t), probe)]
    )


def serve_small_request(seed: int, index: int) -> dict:
    """1-8 shallow observations on one spec; every fifth request is sent
    as DSL text (by index, so even a short run has some)."""
    rng = rng_for(seed, "serve-small", index)
    spec = rng.choice(SERVE_SPECS)
    items = [
        _shallow(spec, rng, f"r{index}n{n}")
        for n in range(rng.randint(1, 8))
    ]
    return {"spec": spec, "items": items, "text": index % 5 == 2}


# ----------------------------------------------------------------------
# serve-batch: deep observations sharing a few base structures
# ----------------------------------------------------------------------
BATCH_ITEMS = 32


def _spread(rng: random.Random, bases: list) -> list:
    """``BATCH_ITEMS`` ``(base, fraction)`` pairs, each base taking an
    even spread of fractions, in random order: every request has the
    same shape and so nearly the same cost, while its payloads and
    item order change with the seed."""
    pairs = []
    for b, base in enumerate(bases):
        count = len(range(b, BATCH_ITEMS, len(bases)))
        pairs += [(base, n / (count - 1)) for n in range(count)]
    rng.shuffle(pairs)
    return pairs


def _deep_queue(rng: random.Random, fresh: str) -> list:
    lengths = [28, 32, 36]
    rng.shuffle(lengths)
    bases = []
    for b, length in enumerate(lengths):
        q = ("NEW",)
        for n in range(length):
            q = ("ADD", q, f"i{fresh}b{b}x{n}")
        bases.append((q, length))
    items = []
    for n, ((q, length), fraction) in enumerate(_spread(rng, bases)):
        low = length // 2
        k = low + round(fraction * (length - 1 - low))
        obs = "IS_EMPTY?" if n % 8 == 7 else "FRONT"
        items.append((obs, nest("REMOVE", q, k)))
    return items


def _deep_symboltable(rng: random.Random, fresh: str) -> list:
    idents = [f"k{fresh}x{n}" for n in range(12)]
    blocks = [12, 14, 16]
    rng.shuffle(blocks)
    bases = []
    for b, count in enumerate(blocks):
        t = ("INIT",)
        for block in range(count):
            t = ("ENTERBLOCK", t)
            for n in range(6 + block % 4):
                t = ("ADD", t, rng.choice(idents), f"a{fresh}b{b}x{block}y{n}")
        bases.append((t, count))
    items = []
    for n, ((t, count), fraction) in enumerate(_spread(rng, bases)):
        inner = nest("LEAVEBLOCK", t, round(fraction * (count - 1)))
        obs = "IS_INBLOCK?" if n % 4 == 3 else "RETRIEVE"
        items.append((obs, inner, rng.choice(idents)))
    return items


def serve_batch_request(seed: int, index: int) -> dict:
    """32 deep observations: three Queue requests to one Symboltable
    request, so the median falls inside the Queue mode rather than
    between two modes.  Every eighth request goes as DSL text."""
    rng = rng_for(seed, "serve-batch", index)
    spec = "Symboltable" if index % 4 == 3 else "Queue"
    build = _deep_queue if spec == "Queue" else _deep_symboltable
    return {
        "spec": spec,
        "items": build(rng, f"r{index}"),
        "text": index % 8 == 5,
    }


# ----------------------------------------------------------------------
# verify: analysis, client-program and representation jobs
# ----------------------------------------------------------------------
def spec_blocks() -> dict[str, str]:
    """The paper spec file split into one DSL text per type."""
    text = SPEC_FILE.read_text()
    blocks = re.split(r"(?m)^(?=type )", text)
    return {
        re.match(r"type (\w+)", b).group(1): b
        for b in blocks
        if b.startswith("type ")
    }


_AXIOM = re.compile(r"\s+\((\w+)\)\s*(.*)")
_VARIABLE = re.compile(r"\b[a-z][a-z0-9_]*\b")


def reported_shape(pattern: str) -> str:
    """``FRONT(ADD(w0_0, w0_1))`` -> ``FRONT(ADD(_,_))``."""
    return _VARIABLE.sub("_", pattern.replace(" ", ""))


def _declared_ops(block: str) -> dict[str, list[str]]:
    """``OP -> argument sorts`` from a block's operations section."""
    section = block.split("operations", 1)[1].split("vars", 1)[0]
    ops = {}
    for line in section.splitlines():
        if ":" in line:
            name, sig = line.split(":", 1)
            args = sig.split("->")[0].strip()
            ops[name.strip()] = [a.strip() for a in args.split(" x ")] if args else []
    return ops


def deletions(blocks: dict[str, str]) -> list[dict]:
    """Every single-axiom deletion, with the missing cases the checker
    must report: the deleted left-hand side, or, when the deleted axiom
    was its operation's only one, every observer applied to that
    operation (it has become a constructor)."""
    jobs = []
    for name, block in blocks.items():
        lines = block.splitlines()
        starts = [i for i, line in enumerate(lines) if _AXIOM.match(line)]
        ops = _declared_ops(block)
        heads = [_AXIOM.match(lines[i]).group(2).split("(")[0] for i in starts]
        for pos, start in enumerate(starts):
            end = start + 1
            while end < len(lines) and lines[end].strip() and end not in starts:
                end += 1
            label = _AXIOM.match(lines[start]).group(1)
            lhs = _AXIOM.match(lines[start]).group(2).split("=")[0]
            head = heads[pos]
            if heads.count(head) > 1:
                expected = {reported_shape(lhs)}
            else:
                inner = f"{head}({', '.join('_' for _ in ops[head])})"
                expected = {
                    f"{op}({', '.join([inner] + ['_'] * (len(sorts) - 1))})"
                    for op, sorts in ops.items()
                    if sorts and sorts[0] == name and op != head
                    and op not in CONSTRUCTORS[name]
                }
                expected = {reported_shape(e) for e in expected}
            jobs.append(
                {
                    "spec": name,
                    "label": label,
                    "text": "\n".join(lines[:start] + lines[end:]),
                    "expected_missing": sorted(expected),
                }
            )
    return jobs



def _partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for n in range(len(part)):
            yield part[:n] + [[first] + part[n]] + part[n + 1:]
        yield [[first]] + part


def holds(spec: str, lhs, rhs, idents: list[str]) -> bool:
    """True when ``lhs`` equals ``rhs`` (an input name or a bool) for
    every input.  Items and attribute lists are opaque to the specs, so
    distinct values decide for them; identifiers are compared by
    ISSAME?, so every way of making some of them equal is tried."""
    for part in _partitions(idents):
        rename = {i: block[0] for block in part for i in block}
        left = reference(spec, lhs, rename)
        right = rename.get(rhs, rhs) if isinstance(rhs, str) else rhs
        if left is ERROR or left != right:
            return False
    return True


def _queue_program(rng: random.Random):
    n = rng.randint(3, 6)
    inputs = [f"i{k}" for k in range(n)]
    q = ("NEW",)
    for name in inputs:
        q = ("ADD", q, name)
    claims = []
    for _ in range(rng.randint(4, 6)):
        if rng.random() < 0.7:
            k = rng.randint(0, n - 1)
            target = inputs[k] if rng.random() < 0.6 else rng.choice(inputs)
            claims.append((("FRONT", nest("REMOVE", ("q",), k)), target))
        else:
            k = rng.randint(0, n)
            truth = rng.random() < 0.5
            claims.append(
                (("IS_EMPTY?", nest("REMOVE", ("q",), k)), (k == n) == truth)
            )
    decls = [f"input {name}: Item" for name in inputs]
    return decls, "q", q, claims, []


def _symboltable_program(rng: random.Random):
    idents = [f"x{k}" for k in range(rng.randint(2, 3))]
    attrs = [f"a{k}" for k in range(3)]
    t, depth = ("INIT",), 0
    for _ in range(rng.randint(3, 6)):
        if rng.random() < 0.3:
            t, depth = ("ENTERBLOCK", t), depth + 1
        else:
            t = ("ADD", t, rng.choice(idents), rng.choice(attrs))
    claims = []
    for _ in range(rng.randint(4, 6)):
        subject = ("t",)
        if depth and rng.random() < 0.3:
            subject = ("LEAVEBLOCK", subject)
        probe = rng.choice(idents)
        if rng.random() < 0.7:
            claims.append((("RETRIEVE", subject, probe), rng.choice(attrs)))
        else:
            claims.append((("IS_INBLOCK?", subject, probe), rng.random() < 0.5))
    decls = [f"input {i}: Identifier" for i in idents]
    decls += [f"input {a}: Attributelist" for a in attrs]
    return decls, "t", t, claims, idents


def _expand(term, name: str, value):
    """``term`` with the let-bound ``name`` replaced by its value."""
    if isinstance(term, str):
        return term
    if term == (name,):
        return value
    return (term[0],) + tuple(_expand(a, name, value) for a in term[1:])


def client_program(spec: str, rng: random.Random) -> dict:
    """A straight-line client program with true and false assertions;
    the truth of each comes from the reference model."""
    build = _queue_program if spec == "Queue" else _symboltable_program
    decls, name, value, claims, idents = build(rng)
    lines = decls + [f"let {name} := {render_text(value, quote=False)}"]
    truths = []
    for lhs, rhs in claims:
        rhs_term = rhs if isinstance(rhs, str) else (str(rhs).lower(),)
        lines.append(f"assert {render_text(lhs, False)} = "
                     f"{render_text(rhs_term, False)}")
        truths.append(holds(spec, _expand(lhs, name, value), rhs, idents))
    return {"source": "\n".join(lines) + "\n", "truths": truths}


#: One verify block: the kinds in a fixed ratio, so every seed runs the
#: same mix and only the payloads change.
VERIFY_BLOCK = (
    "deletion", "client:Queue", "client:Symboltable", "deletion",
    "client:Symboltable", "client:Queue", "representation",
    "deletion", "client:Queue", "client:Symboltable",
)
REPRESENTATION_MODES = ("UNCONDITIONAL", "CONDITIONAL", "REACHABLE")


def verify_job(seed: int, index: int, deletion_jobs: list[dict]) -> dict:
    rng = rng_for(seed, "verify", index)
    kind = VERIFY_BLOCK[index % len(VERIFY_BLOCK)]
    if kind == "deletion":
        return {"kind": kind, **rng.choice(deletion_jobs)}
    if kind == "representation":
        mode = REPRESENTATION_MODES[
            (index // len(VERIFY_BLOCK)) % len(REPRESENTATION_MODES)
        ]
        return {
            "kind": kind,
            "mode": mode,
            "expected_failed": ["6", "9"] if mode == "UNCONDITIONAL" else [],
        }
    spec = kind.split(":")[1]
    return {"kind": "client", "spec": spec, **client_program(spec, rng)}
