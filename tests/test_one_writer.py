"""Every artifact is written by one writer, whole or not at all.

reports._written is the one place in the package that opens a file for
writing: it fills a temporary sibling of the artifact and renames it over
the artifact's name only once the file is complete, deleting the sibling on
any exception.  A second writer could leave a half file where a failed run
stopped.  This parses each source file with ``ast`` and reports every scope
that opens a file for writing, and it interrupts the writer in two ways: a
row stream that raises part-way through ``outcomes.csv``, and a size limit
that stops a JSON write part-way through.
"""

import ast
import errno
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import econorder
from econorder import enumeration
from econorder.cli import main

PACKAGE = Path(econorder.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
WRITER = ("reports.py", "_written")
WRITE_METHODS = {"write_text", "write_bytes"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

TWO_FIRMS = """
[grid]
levels = 1 2
degeneracies = 1 1

[economy]
N = 2
regime = mon
seeds = 7
"""
EARLIER = b"an earlier run's artifact\n"


def _writes_mode(mode: ast.AST) -> bool:
    """A mode that may write: a string with w, a, x or +, or any mode not
    spelled as a string, which a reading of the source cannot rule out."""
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return True


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(file, mode)``, ``x.open(mode)`` (``Path.open``) or
    ``x.open(file, mode)`` (``gzip.open``, ``os.open``) with a mode that may
    write, or ``x.write_text(...)`` / ``x.write_bytes(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        modes = call.args[:2]
    else:
        return False
    modes = modes + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(map(_writes_mode, modes))


def writers(tree: ast.Module) -> list[str]:
    """Qualified scopes that open a file for writing, in source order; the
    module scope is ""."""
    found = []
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, SCOPES):
            scope = scope + "." + node.name if scope else node.name
        if isinstance(node, ast.Call) and _opens_for_writing(node):
            found.append(scope)
        stack.extend((child, scope) for child in reversed(list(ast.iter_child_nodes(node))))
    return found


def test_only_the_writer_opens_a_file_for_writing():
    found = {
        (path.name, scope)
        for path in SOURCES
        for scope in writers(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == {WRITER}


def test_a_second_writer_is_caught():
    tree = ast.parse(
        "import gzip\n"
        "def log(path, text):\n"
        "    with open(path, mode='a') as handle:\n"
        "        handle.write(text)\n"
        "def read(path):\n"
        "    return open(path).read() + path.open(newline='').read() + open(path, 'rb').read()\n"
        "class Out:\n"
        "    def save(self, path, text):\n"
        "        path.write_text(text)\n"
        "        path.with_suffix('.b').write_bytes(b'')\n"
        "        return gzip.open(path, 'wt'), path.open(self.mode)\n"
        "LOG = open('run.log', 'w')\n"
    )
    assert writers(tree) == ["log", "Out.save", "Out.save", "Out.save", "Out.save", ""]


def _left(out: Path, earlier: bytes | None, name: str) -> None:
    """``out`` holds what it held before the write: the earlier artifact
    byte for byte, or nothing, and no temporary sibling."""
    assert sorted(os.listdir(out)) == ([] if earlier is None else [name])
    if earlier is not None:
        assert (out / name).read_bytes() == earlier


@pytest.mark.parametrize("earlier", [None, EARLIER], ids=["new", "earlier"])
def test_an_interrupted_row_stream_leaves_no_partial_file(monkeypatch, tmp_path, earlier):
    # outcomes.csv is written as its stream is drawn: the stream fails after
    # 3,000 rows, more than the writer buffers, so some of them reach the disk
    real = enumeration.OrderCatalog.sample

    def failing(self, seed):
        yield from islice(real(self, seed), 3000)
        raise RuntimeError("stream interrupted")

    monkeypatch.setattr(enumeration.OrderCatalog, "sample", failing)
    config = tmp_path / "run.ini"
    config.write_text(TWO_FIRMS)
    out = tmp_path / "out"
    out.mkdir()
    if earlier is not None:
        (out / "outcomes.csv").write_bytes(earlier)
    argv = ["sample", "--config", str(config), "--out", str(out), "--log-outcomes"]
    with pytest.raises(RuntimeError, match="stream interrupted"):
        main(argv)
    _left(out, earlier, "outcomes.csv")


# dump_json in a process whose files may not grow past 4 KiB (RLIMIT_FSIZE,
# set on that process alone, with SIGXFSZ ignored so a write past it fails
# with EFBIG), on a payload of about 100 KB
INTERRUPTED_JSON = """
import resource, signal, sys
from pathlib import Path
from econorder import reports
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    reports.dump_json(Path(sys.argv[1]), {"values": list(range(10000))})
except OSError as exc:
    print(exc.errno)
"""


@pytest.mark.parametrize("earlier", [None, EARLIER], ids=["new", "earlier"])
def test_a_json_write_stopped_part_way_leaves_no_partial_file(tmp_path, earlier):
    out = tmp_path / "out"
    out.mkdir()
    if earlier is not None:
        (out / "solution.json").write_bytes(earlier)
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_JSON, str(out / "solution.json")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == str(errno.EFBIG)
    _left(out, earlier, "solution.json")
