"""Locating the checkout under test and recording what was measured.

The benchmark always measures the ``src`` tree of the checkout it sits in:
that directory goes first on ``sys.path`` in-process and first on
``PYTHONPATH`` for child processes, and :func:`import_isoprod` refuses to
continue when ``isoprod`` resolves anywhere else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"


class CheckoutError(RuntimeError):
    pass


def require_source() -> None:
    if not (SRC / "isoprod" / "__init__.py").is_file():
        raise CheckoutError(f"no isoprod package under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    # string hashing fixed, so set iteration orders (and exact call counts)
    # repeat from one process to the next
    env["PYTHONHASHSEED"] = "0"
    return env


def import_isoprod(with_cli: bool = False):
    """Import isoprod from this checkout's ``src``; raise if it resolves elsewhere."""
    require_source()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import isoprod

    check_location(isoprod.__file__)
    if with_cli:
        import isoprod.cli  # noqa: F401
    return isoprod


def check_location(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise CheckoutError(f"isoprod resolves outside the checkout: {path}")


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git
    (which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(isoprod_file: str) -> dict:
    import platform

    return {
        "isoprod_file": isoprod_file,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ISOPROD_GROUP_CAP": os.environ.get("ISOPROD_GROUP_CAP"),
    }
