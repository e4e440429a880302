"""DESIGN.md §3 lists the modules that exist, and every package.

The §3 tree gives one entry per line: a name part (``x.py`` files or a
``pkg/`` directory, indented by depth) and an optional description
after a gap of two or more spaces.  Lines whose name part holds no
such names continue the description above them.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
_NAME = re.compile(r"^(\w+\.py|\w+/)$")


def _inventory():
    """(file paths, directory paths) the §3 tree names, under src/repro."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 3. Package inventory", 1)[1].split("\n## ", 1)[0]
    tree = section.split("```", 2)[1]
    lines = [line for line in tree.splitlines() if line.strip()]
    assert lines[0].strip() == "src/repro/"
    files, dirs = set(), set()
    stack = []  # (indent, relative directory path)
    for line in lines[1:]:
        indent = len(line) - len(line.lstrip())
        names = re.split(r"\s{2,}", line.strip(), maxsplit=1)[0].split()
        if not all(_NAME.match(name) for name in names):
            continue  # a description's continuation line
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parent = stack[-1][1] if stack else Path()
        for name in names:
            if name.endswith("/"):
                path = parent / name.rstrip("/")
                dirs.add(path)
                stack.append((indent, path))
            else:
                files.add(parent / name)
    return files, dirs


def test_every_named_module_exists():
    files, dirs = _inventory()
    assert len(files) > 100
    missing = sorted(str(p) for p in files if not (PACKAGE / p).is_file())
    assert missing == []
    assert sorted(str(d) for d in dirs if not (PACKAGE / d).is_dir()) == []


def test_every_subpackage_is_listed():
    _, dirs = _inventory()
    packages = {
        init.parent.relative_to(PACKAGE)
        for init in PACKAGE.rglob("__init__.py")
        if init.parent != PACKAGE
    }
    assert sorted(str(p) for p in packages - dirs) == []
