"""Rule-set compilation: emitted Python rule modules.

The interpreted engine pays a per-step interpretive tax: discrimination
tree lookup, generic :func:`match_bindings` over the pattern, generic
instantiation of the right-hand side.  For a *fixed* rule set all of
that can be decided once, at compile time.  This module emits a
complete Python **source module** per rule set, with one function per
operation:

* **Decision trees.**  An operation's axioms are merged into nested
  ``if``/``elif`` chains over the head symbols / literal values of the
  argument positions — the shape refinement the discrimination tree
  performs per call, resolved once.  Each leaf carries the **residual
  match** (deep destructuring, ground sub-pattern equality, non-linear
  variable checks) as straight-line attribute tests with walrus-bound
  locals, and a right-hand-side builder that constructs interned terms
  directly and calls sibling functions — no bindings dict, no template
  walk.

* **Module emission.**  The generated source is ``compile()``d once and
  cached by the rule set's structural :meth:`~RuleSet.fingerprint` (plus
  whether memo tables are on), so equal rule sets — every engine over
  the same specification — share one code object.  Instantiating an
  engine then only re-``exec``s the cached code with fresh counters and
  memo dicts.
  Functions take their arguments positionally (``op_k(a0, a1, b, d)``:
  the argument normal forms, the shared one-element fuel budget, and
  the nesting depth) and memoise in per-operation dicts keyed by the
  argument itself.  The dicts share one entry budget: one count covers
  every store, so together they hold at most ``cache_size`` entries
  (the engine's memo cap), and on overflow all of them are cleared at
  once, the owning engine's memo with them.  Past
  ``_DEPTH_LIMIT`` nested calls a function raises
  :class:`_DeepRecursion` and the engine finishes that node's subtree
  on its iterative interpreted root step, so deep rewrite chains
  degrade gracefully instead of hitting Python's recursion limit.

Operations whose patterns the compiler cannot fold into tests (an
``Ite`` inside a left-hand side) run on the owning engine's interpreted
machine; so do builtin steps that return whole terms.  A module is not
an engine and walks no terms: :class:`CodegenModule.instantiate` gives
one :class:`~repro.rewriting.engine.RewriteEngine` its live
:class:`CodegenRules` (counters, memos and the functions), and the
engine's own machine walks every subject, probing its memo, and calls a
function as the root step of each argument-normal application.  The
differential suites hold the two backends to the same normal forms,
firing counts and fuel.
"""

from __future__ import annotations

import threading
import weakref

from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN, Sort
from repro.algebra.substitution import apply_bindings
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.spec.errors import AlgebraError
from repro.spec.prelude import boolean_term, is_false, is_true
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.obs import trace as _trace

#: Nested generated-function calls allowed before falling back to the iterative
#: interpreter.  Python's default recursion limit is 1000 and each
#: sibling call costs one frame; 400 leaves ample headroom for the
#: caller's own frames.
_DEPTH_LIMIT = 400

#: Bound on cached generated modules (keyed by rule-set fingerprint).
_MODULE_CACHE_LIMIT = 64


class _LimitHit(Exception):
    """Raised inside generated code when the fuel budget runs out."""


class _DeepRecursion(Exception):
    """Raised inside generated code when sibling calls nest too deep."""


class _Uncompilable(Exception):
    """A rule pattern the decision-tree compiler cannot handle."""


class _Compiler:
    """Emits the rule module (see the module docstring): one plain
    memoised function per operation, with decision-tree dispatch."""

    def __init__(self, rules: RuleSet, cache_on: bool) -> None:
        self.rules = list(rules)
        self.cache_on = cache_on
        self.lines: list[str] = []
        self.ns: dict = {}
        self._const_names: dict[int, str] = {}
        self._const_keep: list = []
        self._counts: dict[str, int] = {}
        self._ntmp = 0
        self.rule_heads = {rule.head.name for rule in self.rules}
        # Operations needing functions: every rule head, plus every
        # builtin operation mentioned anywhere in a rule (its RHS calls
        # must dispatch through a function too).
        self.ops: list[Operation] = []
        self.op_index: dict[str, int] = {}
        for rule in self.rules:
            self._note_op(rule.head)
        for rule in self.rules:
            for side in (rule.lhs, rule.rhs):
                for _, node in side.subterms():
                    if isinstance(node, App) and node.op.builtin is not None:
                        self._note_op(node.op)
        # Rule-headed operations the decision tree cannot compile (an
        # Ite inside a pattern): the whole operation runs interpreted.
        self.uncompiled: set[str] = set()
        for rule in self.rules:
            if any(
                isinstance(node, Ite)
                for _, node in rule.lhs.subterms()
            ):
                self.uncompiled.add(rule.head.name)

    # -- bookkeeping ---------------------------------------------------
    def _note_op(self, op: Operation) -> None:
        if op.name not in self.op_index:
            self.op_index[op.name] = len(self.ops)
            self.ops.append(op)

    def const(self, obj, prefix: str) -> str:
        """Intern ``obj`` into the generated module's namespace."""
        name = self._const_names.get(id(obj))
        if name is None:
            n = self._counts.get(prefix, 0)
            self._counts[prefix] = n + 1
            name = f"{prefix}_{n}"
            self._const_names[id(obj)] = name
            self._const_keep.append(obj)
            self.ns[name] = obj
        return name

    def op_const(self, op: Operation) -> str:
        k = self.op_index.get(op.name)
        if k is not None and self.ops[k] is op:
            return f"OP_{k}"
        # Distinct prefix: OP_{k} names are claimed by compiled operations.
        return self.const(op, "OQ")

    def err_const(self, sort: Sort) -> str:
        return self.const(Err(sort), "K")

    def _tmp(self) -> str:
        self._ntmp += 1
        return f"t{self._ntmp}"

    def _inert(self, term: Term) -> bool:
        """Ground and already in normal form regardless of evaluation:
        no rule-headed operation, no builtin, no conditional."""
        if not term._ground:
            return False
        stack = [term]
        while stack:
            node = stack.pop()
            if isinstance(node, Ite):
                return False
            if isinstance(node, App):
                if node.op.name in self.rule_heads or node.op.builtin is not None:
                    return False
                stack.extend(node.args)
        return True

    # -- pattern compilation -------------------------------------------
    def _compile_pattern(self, rule: RewriteRule):
        """The residual match for one rule as a list of ``and``-joined
        condition strings, plus the variable environment it binds."""
        conds: list[str] = []
        env: dict[Var, str] = {}

        def walk(pat: Term, expr: str, simple: bool) -> None:
            if isinstance(pat, Var):
                bound = env.get(pat)
                if bound is not None:
                    conds.append(f"{bound} == {expr}")  # non-linear
                elif simple:
                    env[pat] = expr
                else:
                    t = self._tmp()
                    conds.append(f"(({t} := {expr}) or True)")
                    env[pat] = t
                return
            if pat._ground:
                # Matching a ground pattern is exactly structural
                # equality (identity-fast under interning).
                conds.append(f"{expr} == {self.const(pat, 'K')}")
                return
            if isinstance(pat, App):
                if not simple:
                    t = self._tmp()
                    conds.append(f"(({t} := {expr}) or True)")
                    expr = t
                oc = self.op_const(pat.op)
                conds.append(f"type({expr}) is App")
                conds.append(f"({expr}.op is {oc} or {expr}.op == {oc})")
                for i, sub in enumerate(pat.args):
                    walk(sub, f"{expr}.args[{i}]", False)
                return
            raise _Uncompilable(str(pat))

        for i, arg in enumerate(rule.lhs.args):
            walk(arg, f"a{i}", True)
        return conds, env


    # -- small helpers --------------------------------------------------
    def _key_expr(self, k: int) -> str:
        arity = self.ops[k].arity
        if arity == 0:
            return "()"
        if arity == 1:
            return "a0"
        return "(" + ", ".join(f"a{i}" for i in range(arity)) + ")"

    def _store_lines(self, k: int, key: str, value: str, ind: str) -> None:
        """One memo store.  ``CN`` counts stores into every ``C{k}``
        since the last ``CLEAR()``, so the memos' summed size never
        exceeds ``CMAX``; on overflow all of them are cleared at once,
        and the engine memo (``MEMO``) with them."""
        L = self.lines
        L.append(f"{ind}if CN >= CMAX:")
        L.append(f"{ind}    CLEAR()")
        L.append(f"{ind}CN += 1")
        L.append(f"{ind}C{k}[{key}] = {value}")

    def _emit_err(self, ind: str, err_sort) -> None:
        """Strict error propagation at one consumption site: return the
        operation's error (no memo store)."""
        L = self.lines
        L.append(f"{ind}ST[4] += 1")
        L.append(f"{ind}return {self.err_const(err_sort)}")

    # -- RHS generation (per-arg calls, error style) -------------------
    def _gen(self, t: Term, env, ind: str, err_sort):
        L = self.lines
        if isinstance(t, Var):
            return env[t], False
        if isinstance(t, Lit):
            return self.const(t, "K"), False
        if isinstance(t, Err):
            return self.const(t, "K"), True
        if isinstance(t, App):
            if self._inert(t):
                return self.const(t, "K"), False
            parts = []
            for sub in t.args:
                ex, may_err = self._gen(sub, env, ind, err_sort)
                if may_err:
                    tv = self._tmp()
                    L.append(f"{ind}{tv} = {ex}")
                    L.append(f"{ind}if type({tv}) is Err:")
                    self._emit_err(ind + "    ", err_sort)
                    ex = tv
                parts.append(ex)
            name = t.op.name
            k = self.op_index.get(name)
            if k is not None and name not in self.uncompiled:
                args = "".join(f"{p}, " for p in parts)
                return f"op_{k}({args}b, d + 1)", True
            tup = (
                "(" + ", ".join(parts)
                + ("," if len(parts) == 1 else "") + ")"
            )
            if name in self.uncompiled:
                return f"RT_APP({self.op_const(t.op)}, {tup}, b)", True
            return f"App({self.op_const(t.op)}, {tup})", False
        assert isinstance(t, Ite)
        cex, cme = self._gen(t.cond, env, ind, err_sort)
        tc = self._tmp()
        L.append(f"{ind}{tc} = {cex}")
        if cme:
            L.append(f"{ind}if type({tc}) is Err:")
            self._emit_err(ind + "    ", err_sort)
        tv = self._tmp()
        L.append(f"{ind}if {tc} is TRUE_N or IS_TRUE({tc}):")
        ex, me1 = self._gen(t.then_branch, env, ind + "    ", err_sort)
        L.append(f"{ind}    {tv} = {ex}")
        L.append(f"{ind}elif {tc} is FALSE_N or IS_FALSE({tc}):")
        ex, me2 = self._gen(t.else_branch, env, ind + "    ", err_sort)
        L.append(f"{ind}    {tv} = {ex}")
        L.append(f"{ind}else:")
        branch_vars = t.then_branch.variables() | t.else_branch.variables()
        bd = ", ".join(
            f"{self.const(v, 'V')}: {env[v]}"
            for v in sorted(branch_vars, key=lambda v: v.name)
        )
        tt = self.const(t.then_branch, "T")
        te = self.const(t.else_branch, "T")
        L.append(
            f"{ind}    {tv} = Ite({tc}, AB({tt}, {{{bd}}}), AB({te}, {{{bd}}}))"
        )
        return tv, me1 or me2

    # -- per-operation emission -----------------------------------------
    def _emit_finish(self, k: int, ind: str) -> None:
        L = self.lines
        if self.cache_on:
            L.append(f"{ind}if g and type(r) is not Ite:")
            self._store_lines(k, self._key_expr(k), "r", ind + "    ")
        L.append(f"{ind}return r")

    def _emit_fire(self, k, gidx, rule, env, ind: str) -> None:
        L = self.lines
        L.append(f"{ind}b[0] -= 1")
        L.append(f"{ind}if b[0] < 0:")
        L.append(f"{ind}    raise LimitHit")
        L.append(f"{ind}ST[0] += 1; RF[{gidx}] += 1")
        expr, _ = self._gen(rule.rhs, env, ind, rule.head.range)
        L.append(f"{ind}r = {expr}")
        self._emit_finish(k, ind)

    def _emit_leaves(self, k: int, rules, ind: str) -> None:
        L = self.lines
        for gidx, rule in rules:
            conds, env = self._compile_pattern(rule)
            if conds:
                L.append(f"{ind}if {' and '.join(conds)}:")
                self._emit_fire(k, gidx, rule, env, ind + "    ")
            else:
                self._emit_fire(k, gidx, rule, env, ind)
                break  # unconditional match: later rules unreachable

    def _emit_dispatch(self, k: int, rules, pos: int, ind: str) -> None:
        """Nested if/elif refinement over argument head symbols, derived
        the same way the discrimination tree refines: at each position,
        partition the candidate rules by the pattern's top symbol, with
        variable patterns joining every branch (and the default)."""
        op = self.ops[k]
        arity = op.arity
        p = None
        for q in range(pos, arity):
            if any(not isinstance(r.lhs.args[q], Var) for _, r in rules):
                p = q
                break
        if p is None:
            self._emit_leaves(k, rules, ind)
            return
        sp = f"a{p}"
        app_groups: dict[str, list] = {}
        const_groups: list[tuple[Term, list]] = []
        wild: list = []
        for item in rules:
            pa = item[1].lhs.args[p]
            if isinstance(pa, Var):
                wild.append(item)
            elif isinstance(pa, App):
                app_groups.setdefault(pa.op.name, []).append(item)
            else:  # ground Lit / Err pattern
                for node, group in const_groups:
                    if node == pa:
                        group.append(item)
                        break
                else:
                    const_groups.append((pa, [item]))

        def merged(group):
            return sorted(group + wild, key=lambda it: it[0])

        L = self.lines
        chain_open = False
        if app_groups:
            L.append(f"{ind}if type({sp}) is App:")
            names = list(app_groups)
            if len(names) == 1:
                L.append(f"{ind}    if {sp}.op.name == {names[0]!r}:")
                self._emit_dispatch(k, merged(app_groups[names[0]]), p + 1, ind + "        ")
            else:
                L.append(f"{ind}    n{p} = {sp}.op.name")
                first = True
                for nm in names:
                    kw = "if" if first else "elif"
                    first = False
                    L.append(f"{ind}    {kw} n{p} == {nm!r}:")
                    self._emit_dispatch(k, merged(app_groups[nm]), p + 1, ind + "        ")
            if wild:
                L.append(f"{ind}    else:")
                self._emit_dispatch(k, wild, p + 1, ind + "        ")
            chain_open = True
        for node, group in const_groups:
            kw = "elif" if chain_open else "if"
            L.append(f"{ind}{kw} {sp} == {self.const(node, 'K')}:")
            self._emit_dispatch(k, merged(group), p + 1, ind + "    ")
            chain_open = True
        if wild and chain_open:
            L.append(f"{ind}else:")
            self._emit_dispatch(k, wild, p + 1, ind + "    ")

    def _emit_op(self, k: int, rules) -> None:
        op = self.ops[k]
        L = self.lines
        arity = op.arity
        params = "".join(f"a{i}, " for i in range(arity))
        L.append("")
        L.append(f"def op_{k}({params}b, d):  # {op.name}")
        if self.cache_on:
            L.append("    global CN")
        L.append(f"    if d > {_DEPTH_LIMIT}:")
        L.append("        raise Deep")
        if self.cache_on:
            L.append("    ST[3] += 1")
            L.append(f"    r = C{k}.get({self._key_expr(k)})")
            L.append("    if r is not None:")
            L.append("        ST[2] += 1")
            L.append("        return r")
            g = " and ".join(f"a{i}._ground" for i in range(arity)) or "True"
            L.append(f"    g = {g}")
        if op.builtin is not None:
            self._emit_builtin(k, op)
        if rules:
            self._emit_dispatch(k, rules, 0, "    ")
        tup = (
            "(" + ", ".join(f"a{i}" for i in range(arity))
            + ("," if arity == 1 else "") + ")"
        )
        L.append(f"    r = App(OP_{k}, {tup})")
        self._emit_finish(k, "    ")

    def _emit_builtin(self, k: int, op: Operation) -> None:
        L = self.lines
        arity = op.arity
        bc = self.const(op.builtin, "BI")
        cond = " and ".join(f"type(a{i}) is Lit" for i in range(arity))
        if cond:
            L.append(f"    if {cond}:")
            ind = "        "
        else:
            ind = "    "
        args_v = ", ".join(f"a{i}.value" for i in range(arity))
        L.append(f"{ind}ST[1] += 1")
        L.append(f"{ind}b[0] -= 1")
        L.append(f"{ind}if b[0] < 0:")
        L.append(f"{ind}    raise LimitHit")
        L.append(f"{ind}try:")
        L.append(f"{ind}    v = {bc}({args_v})")
        L.append(f"{ind}except AlgebraError:")
        L.append(f"{ind}    r = {self.err_const(op.range)}")
        self._emit_finish(k, ind + "    ")
        sc = self.const(op.range, "S")
        if op.range == BOOLEAN:
            L.append(f"{ind}if v is True:")
            L.append(f"{ind}    r = TRUE_N")
            L.append(f"{ind}elif v is False:")
            L.append(f"{ind}    r = FALSE_N")
            L.append(f"{ind}elif isinstance(v, Term):")
            L.append(f"{ind}    r = RT_TERM(v, b)")
            L.append(f"{ind}else:")
            L.append(f"{ind}    r = Lit(v, {sc})")
        else:
            L.append(f"{ind}if isinstance(v, Term):")
            L.append(f"{ind}    r = RT_TERM(v, b)")
            L.append(f"{ind}else:")
            L.append(f"{ind}    r = Lit(v, {sc})")
        self._emit_finish(k, ind)

    # -- module assembly ------------------------------------------------
    def compile_module(self, fingerprint: str) -> "CodegenModule":
        by_head: dict[str, list] = {}
        for gidx, rule in enumerate(self.rules):
            by_head.setdefault(rule.head.name, []).append((gidx, rule))
        self.lines.append(f"# second-stage rule module  [{fingerprint[:16]}]")
        self.ns.update(
            App=App,
            Lit=Lit,
            Err=Err,
            Ite=Ite,
            Term=Term,
            AlgebraError=AlgebraError,
            TRUE_N=boolean_term(True),
            FALSE_N=boolean_term(False),
            IS_TRUE=is_true,
            IS_FALSE=is_false,
            AB=apply_bindings,
            LimitHit=_LimitHit,
            Deep=_DeepRecursion,
        )
        compiled_names = []
        memo_names = []
        for k, op in enumerate(self.ops):
            self.ns[f"OP_{k}"] = op
            if op.name in self.uncompiled:
                continue
            if self.cache_on:
                memo_names.append(f"C{k}")
            self._emit_op(k, by_head.get(op.name, ()))
            compiled_names.append((op.name, k))
        self.lines.append("")
        self.lines.append("def CLEAR():")
        self.lines.append("    global CN")
        self.lines.append("    CN = 0")
        self.lines.extend(f"    {name}.clear()" for name in memo_names)
        if self.cache_on:
            self.lines.append("    MEMO.clear()")
        source = "\n".join(self.lines) + "\n"
        code = compile(source, "<codegen-rules>", "exec")
        return CodegenModule(
            source=source,
            code=code,
            base_ns=dict(self.ns),
            rules=self.rules,
            uncompiled=frozenset(self.uncompiled),
            compiled_names=tuple(compiled_names),
            memo_names=tuple(memo_names),
            fingerprint=fingerprint,
        )


class CodegenModule:
    """A compiled-once generated module, shareable across engines whose
    rule sets fingerprint identically.  ``instantiate`` re-executes the
    cached code object with fresh counters and memo dicts."""

    __slots__ = (
        "source",
        "code",
        "base_ns",
        "rules",
        "uncompiled",
        "compiled_names",
        "memo_names",
        "fingerprint",
    )

    def __init__(
        self,
        source,
        code,
        base_ns,
        rules,
        uncompiled,
        compiled_names,
        memo_names,
        fingerprint,
    ):
        self.source = source
        self.code = code
        self.base_ns = base_ns
        self.rules = rules
        self.uncompiled = uncompiled
        self.compiled_names = compiled_names
        self.memo_names = memo_names
        self.fingerprint = fingerprint

    def instantiate(
        self, cache_size: int, stats, interpret, memo
    ) -> "CodegenRules":
        """Execute the cached code with fresh counters and memo dicts.
        ``memo`` is the owning engine's memo, which ``CLEAR()`` empties
        with the generated ones.
        ``interpret(term, meter)`` is the owning engine's interpreter (a
        bound method): the generated functions call it for builtins that
        return whole terms and for uncompiled operations.  They reach it
        through a weak reference, so an engine, which holds its
        functions, is freed with its last reference rather than at the
        next garbage collection.  ``stats`` is the owning engine's
        ``EngineStats``."""
        interpreter = weakref.WeakMethod(interpret)
        ns = dict(self.base_ns)
        ns.update((name, {}) for name in self.memo_names)
        ns["ST"] = [0, 0, 0, 0, 0]
        ns["RF"] = [0] * len(self.rules)
        ns["CMAX"] = max(cache_size, 1)
        ns["CN"] = 0
        ns["MEMO"] = memo
        ns["RT_TERM"] = lambda term, b: interpreter()(term, b)
        ns["RT_APP"] = lambda op, args, b: interpreter()(App(op, args), b)
        exec(self.code, ns)
        return CodegenRules(self, ns, stats)


class CodegenRules:
    """One engine's instantiated rule module: the generated functions
    (``fns``, by operation name), their memos and flat counters.

    The engine's machine calls ``fns[name](*args, meter, 0)`` as the
    root step of an argument-normal application and :meth:`_sync` after
    every evaluation.  Operations without a function (free
    constructors, uncompiled operations, builtins no rule mentions)
    take the interpreted root step."""

    __slots__ = ("module", "ns", "st", "rf", "fns", "memos", "stats", "slots")

    def __init__(self, module, ns, stats):
        self.module = module
        self.ns = ns
        self.st = ns["ST"]
        self.rf = ns["RF"]
        self.fns = {name: ns[f"op_{k}"] for name, k in module.compiled_names}
        self.memos = {name: ns[name] for name in module.memo_names}
        self.stats = stats
        # The engine counters the entries of ``ST`` feed, in ``ST`` order.
        self.slots = (
            stats.s_steps,
            stats.s_builtin,
            stats.s_hits,
            stats.s_probes,
            stats.s_errprop,
        )

    def clear(self) -> None:
        """Empty the memos."""
        self.ns["CLEAR"]()

    def _sync(self) -> None:
        """Drain the generated module's flat counters into the engine
        stats: add the non-zero entries, then zero them.  Firings are
        counted per rule only (``RF``): the engine's total is derived
        from the per-rule family, so there is one count to trust."""
        st = self.st
        for i, slot in enumerate(self.slots):
            if st[i]:
                slot[0] += st[i]
                st[i] = 0
        rf = self.rf
        if any(rf):
            counts = self.stats.firings.counts
            deltas: dict = {}
            for i, rule in enumerate(self.module.rules):
                delta = rf[i]
                if delta:
                    counts[rule] = counts.get(rule, 0) + delta
                    deltas[rule] = delta
                    rf[i] = 0
            tracer = _trace.ACTIVE
            if tracer is not None:
                # Generated functions count firings in flat lists (no
                # per-step events on the hot path); emit one aggregated
                # event so traces stay count-exact across backends.
                tracer.firings(deltas)


#: Cache of generated modules, keyed by rule-set fingerprint + options.
#: Guarded by ``_MODULE_CACHE_LOCK``: engines may be built from threads,
#: and shard-pool workers forked mid-build must inherit a consistent
#: dict (the eviction path clears and repopulates, which a concurrent
#: reader — or a fork snapshot — must never observe half-done).
_MODULE_CACHE: dict[str, CodegenModule] = {}
_MODULE_CACHE_LOCK = threading.Lock()


def codegen_module(rules: RuleSet, cache_on: bool = True) -> CodegenModule:
    """The (cached) generated module for ``rules``, with or without
    memo tables."""
    key = rules.fingerprint(extra=f"codegen-v1;cache={int(cache_on)}")
    with _MODULE_CACHE_LOCK:
        module = _MODULE_CACHE.get(key)
    if module is None:
        # Compile outside the lock — generation is slow and pure, and a
        # duplicate concurrent build is harmless: the store below is
        # last-writer-wins on an identical module.
        module = _Compiler(rules, cache_on).compile_module(key)
        with _MODULE_CACHE_LOCK:
            if len(_MODULE_CACHE) >= _MODULE_CACHE_LIMIT:
                _MODULE_CACHE.clear()
            _MODULE_CACHE.setdefault(key, module)
            module = _MODULE_CACHE[key]
    return module
