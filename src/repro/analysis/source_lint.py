"""Source lint: library code must stay silent, fault boundaries explicit.

Two rules over ``src/repro``:

1. **Broad exception handlers must be declared fault boundaries.**  The
   resilience work (ISSUE 4) contains failures at a small set of
   explicit *fault boundaries* — the degradation ladder in the engines,
   the CLI's top level, speculative construction in the completion
   machinery.  Anywhere else, a bare ``except:`` or a blanket ``except
   Exception`` swallows exactly the injected faults the chaos suite
   relies on observing, so every broad handler must carry a
   justification marker on its ``except`` line::

       except Exception:  # fault-boundary: degrade to interpreted

2. **No ``print()`` outside the presentation layer.**  The
   observability work (ISSUE 5) routes diagnostics through
   :mod:`repro.obs` (structured trace events, metrics snapshots) and
   renders them in :mod:`repro.report` / the CLI.  A stray ``print`` in
   library code bypasses both the sampling knob and the trace export, so
   it is flagged everywhere except the presentation allowlist
   (``report/``, ``cli.py``, and this linter, whose output *is* its
   interface).  A deliberate exception elsewhere takes a justified
   marker on the call's line::

       print(banner)  # allow-print: example script output

Markers with no justification text do not count.  Run as a module
(CI does)::

    python -m repro.analysis.source_lint [ROOT ...]

Exit status 1 when any violation is found; the findings print as
``path:line: message`` for editor navigation.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: The allowlist marker: the ``except`` line must contain this comment,
#: followed by a non-empty justification.
MARKER = "# fault-boundary:"

#: Per-line exemption marker for the ``print()`` rule, same shape.
PRINT_MARKER = "# allow-print:"

#: Exception names considered over-broad when caught directly.
BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Directories whose modules *are* the presentation layer — ``print``
#: is their job, not a leak.
PRINT_ALLOWED_DIRS = frozenset({"report"})

#: Individual presentation-layer modules (matched by file name).
PRINT_ALLOWED_FILES = frozenset({"cli.py", "source_lint.py"})


@dataclass(frozen=True)
class Violation:
    """One undeclared broad handler."""

    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def _broad_name(node: Optional[ast.expr]) -> Optional[str]:
    """The over-broad class name caught by this ``except`` clause, or
    ``None``.  A bare handler reports ``""``; tuples are searched."""
    if node is None:
        return ""
    if isinstance(node, ast.Name) and node.id in BROAD_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in BROAD_NAMES:
        return node.attr
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            name = _broad_name(element)
            if name is not None:
                return name
    return None


def _allowlisted(
    lines: Sequence[str], lineno: int, marker: str = MARKER
) -> bool:
    """True when the flagged line carries a justified marker."""
    if not 1 <= lineno <= len(lines):
        return False
    line = lines[lineno - 1]
    if marker not in line:
        return False
    justification = line.split(marker, 1)[1].strip()
    return bool(justification)


def _print_allowed_path(path: str) -> bool:
    """True when ``path`` lies in the presentation layer (where
    ``print`` is the module's interface rather than a leak)."""
    parts = Path(path).parts
    if set(parts) & PRINT_ALLOWED_DIRS:
        return True
    return parts[-1] in PRINT_ALLOWED_FILES if parts else False


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Violations in one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, f"syntax error: {exc.msg}")]
    lines = source.splitlines()
    violations = []
    check_prints = not _print_allowed_path(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            name = _broad_name(node.type)
            if name is None or _allowlisted(lines, node.lineno):
                continue
            if name == "":
                message = (
                    "bare 'except:' — catch specific exceptions, or mark "
                    f"the line with '{MARKER} <why>'"
                )
            else:
                message = (
                    f"over-broad 'except {name}' — catch specific "
                    f"exceptions, or mark the line with '{MARKER} <why>'"
                )
            violations.append(Violation(path, node.lineno, message))
        elif (
            check_prints
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            if _allowlisted(lines, node.lineno, PRINT_MARKER):
                continue
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    "print() in library code — emit a trace event or "
                    "metric (repro.obs) and render via repro.report, or "
                    f"mark the line with '{PRINT_MARKER} <why>'",
                )
            )
    return violations


def lint_paths(roots: Iterable[Path]) -> list[Violation]:
    """Violations across every ``.py`` file under ``roots`` (files are
    accepted too), sorted by location."""
    violations = []
    for root in roots:
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for file in files:
            violations.extend(
                lint_source(file.read_text(encoding="utf-8"), str(file))
            )
    return sorted(violations, key=lambda v: (v.path, v.line))


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    roots = [Path(a) for a in arguments] or [Path("src/repro")]
    missing = [root for root in roots if not root.exists()]
    if missing:
        for root in missing:
            print(f"error: no such path: {root}", file=sys.stderr)
        return 2
    violations = lint_paths(roots)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} source lint violation(s)", file=sys.stderr)
        return 1
    scanned = ", ".join(str(root) for root in roots)
    print(f"source lint clean (broad-except, print): {scanned}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
