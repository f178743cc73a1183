"""List groups of repeated statement windows in the package: candidate clones.

Every statement list (`body`, `orelse`, `finalbody`) of each module is cut
into windows of 3 consecutive statements. A window is normalized (every
name, attribute and argument becomes `_`, every constant 0) and windows
whose `ast.dump` is equal form a group. Groups with two or more sites are
printed, largest first, as `path:line` per site. Most are runs of plain
assignments, imports or docstrings; the rest are read by hand. A group is a
cut when its sites state one fact or write one format.

Usage, from the repository root:

    python3 tools/clone_scan.py [SOURCE_DIR]    # default: src/lungseg3d

It always exits 0: it is a reading aid, not a gate.
"""
from __future__ import annotations

import ast
import copy
import sys
from collections import defaultdict
from pathlib import Path

WINDOW = 3


class _Normalize(ast.NodeTransformer):
    def visit_Name(self, node):
        return ast.copy_location(ast.Name(id="_", ctx=node.ctx), node)

    def visit_Attribute(self, node):
        self.generic_visit(node)
        node.attr = "_"
        return node

    def visit_arg(self, node):
        node.arg = "_"
        node.annotation = None
        return node

    def visit_Constant(self, node):
        return ast.copy_location(ast.Constant(value=0), node)


def _windows(tree):
    """(first line, normalized dump) of every window of every statement list."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list) or len(stmts) < WINDOW:
                continue
            for i in range(len(stmts) - WINDOW + 1):
                window = [_Normalize().visit(copy.deepcopy(s))
                          for s in stmts[i:i + WINDOW]]
                yield stmts[i].lineno, "\n".join(ast.dump(s) for s in window)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/lungseg3d")
    groups = defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, key in _windows(tree):
            groups[key].append(f"{path}:{line}")
    found = sorted((sites for sites in groups.values() if len(sites) > 1),
                   key=lambda sites: (-len(sites), sites))
    for n, sites in enumerate(found, 1):
        print(f"group {n}: {len(sites)} sites")
        for site in sites:
            print(f"  {site}")
    print(f"{len(found)} groups of {WINDOW}-statement windows with 2 or more "
          f"sites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
