"""Report the ``def``s in ``src/repro`` that no production run reaches.

Runs the production entry points in this process under a ``sys.settrace``
hook that records every Python frame entered, then lists, file by file, the
functions and methods of ``src/repro`` whose code never ran.  The entry
points:

* ``repro-figures all --scale small``, untraced with ``--json`` and traced
  (``--trace``);
* the four ``examples/`` scripts with their default arguments;
* the four perfbench workloads at their ``tiny`` sizes, untraced and traced.

Defs on :data:`KEEP` are production API that these small runs do not
trigger (ROADMAP item 8's keep-list), what only such API calls, resource
cleanup, or error paths no correct run takes, and are left out of the
report; each entry says why.  Code
that runs only in a forked child (the two-party transport's party) is
invisible to the hook, so its entry points are on the keep-list too, and what only they call shows up as unreached.

This is a report, not a gate: it takes minutes (the figures dominate) and a
def a larger run would reach can appear in it.  Run from the repository
root::

    PYTHONPATH=src python tests/tools/reachability.py > reachability-report.txt
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: ``(file relative to src/repro, qualified name)`` of the defs the report
#: skips, each with its reason.
KEEP: Set[Tuple[str, str]] = {
    # Maintenance API no churn run issues: a degree update, a full rebuild
    # (the staleness monitor's last resort) and crash recovery.
    ("maintenance/tree.py", "MaintainedTree.rebuild"),
    ("maintenance/tree.py", "MaintainedTree.update_degree"),
    ("maintenance/tree.py", "MaintainedTree.recover"),
    ("maintenance/journal.py", "MutationJournal.recover"),
    # Reached only through the keep-listed update_degree / rebuild above.
    ("maintenance/tree.py", "MaintainedTree._do_update_degree"),
    ("maintenance/tree.py", "MaintainedTree._do_rebuild"),
    ("crypto/oblivious_transfer.py", "TranscriptAccountant.merge"),
    # Loads the real SNAP dumps, which only a data/ directory provides.
    ("graph/datasets.py", "load_musae_style"),
    # The --scale choices of the CLI besides the small one the probe runs.
    ("eval/runner.py", "ExperimentScale.medium"),
    ("eval/runner.py", "ExperimentScale.paper"),
    # Resource cleanup: the `with` form that closes a channel / journal on
    # any exit; the production runs close theirs explicitly.
    ("crypto/channel.py", "PartyChannel.__enter__"),
    ("crypto/channel.py", "PartyChannel.__exit__"),
    ("maintenance/journal.py", "MutationJournal.__enter__"),
    ("maintenance/journal.py", "MutationJournal.__exit__"),
    # Error path: a backward pass over a graph whose buffers were released.
    ("nn/tensor.py", "_released"),
    # Forked children, invisible to the hook.
    ("crypto/transport.py", "party_main"),
    ("crypto/transport.py", "_serve_comparison"),
}


def collect_defs() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """Every def of ``src/repro``, keyed like a code object.

    The key is ``(path, first line)``, where the first line is that of the
    first decorator, as in ``co_firstlineno``; the value is ``(file, qualified
    name, line count)``.
    """
    defs: Dict[Tuple[str, int], Tuple[str, str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    lines = child.end_lineno - first + 1
                    defs[(os.path.realpath(path), first)] = (relative, name, lines)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return defs


@contextlib.contextmanager
def recording(seen: Set[Tuple[str, int]]):
    """Add ``(co_filename, co_firstlineno)`` of every frame entered to ``seen``."""

    def hook(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno))
        return None  # no per-line tracing

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def run_production(scratch: Path) -> None:
    """Run every production entry point once, with its output swallowed."""
    from repro.eval import figures
    from perfbench import run, workloads

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        figures.main(["all", "--scale", "small", "--json"])
        figures.main(["all", "--scale", "small", "--trace", str(scratch / "figures.json")])
        for script in sorted((ROOT / "examples").glob("*.py")):
            saved = sys.argv
            sys.argv = [str(script)]
            try:
                runpy.run_path(str(script), run_name="__main__")
            except SystemExit:
                pass
            finally:
                sys.argv = saved
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                run.measure(
                    workload, seed=0, seconds=0, trace=trace, out_dir=scratch,
                    sizes=workload.tiny,
                )


def report(defs, seen) -> str:
    """Per file, the defs ``seen`` lacks (keep-list excluded), then totals."""
    real = {name: os.path.realpath(name) for name, _ in seen}
    seen = {(real[name], line) for name, line in seen}
    unreached: Dict[str, List[Tuple[int, str, int]]] = {}
    for (path, first), (relative, name, lines) in sorted(defs.items()):
        if (path, first) in seen or (relative, name) in KEEP:
            continue
        unreached.setdefault(relative, []).append((first, name, lines))
    out = []
    for relative in sorted(unreached):
        rows = unreached[relative]
        out.append(f"{relative}  ({sum(lines for _, _, lines in rows)} lines)")
        out.extend(f"    L{first:<5d} {name}  ({lines} lines)" for first, name, lines in rows)
    reached = sum(1 for key in defs if key in seen)
    missed = sum(len(rows) for rows in unreached.values())
    missed_lines = sum(lines for rows in unreached.values() for _, _, lines in rows)
    out.append(
        f"production reaches {reached} of {len(defs)} defs; {missed} defs "
        f"({missed_lines} def-lines) outside the keep-list are unreached. "
        "Forked children are invisible to this probe."
    )
    return "\n".join(out) + "\n"


def main() -> int:
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    defs = collect_defs()
    seen: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch, recording(seen):
        run_production(Path(scratch))
    sys.stdout.write(report(defs, seen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
