"""What a cold ``python -m repro`` process loads (DESIGN.md §14, "Cold
start").

A structural query or ``repro stats`` imports no numpy — only an
index-scan key needs the eigensolver — and ``import repro`` alone loads
no subpackage.  The XML-name character classes both parsers compile at
import are spelled as negated ASCII sets; an exhaustive pass over every
code point shows they accept exactly what the original
``\\u0080-\\U0010FFFF`` ranges did.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

import repro
import repro.core
import repro.query.parser as query_parser
import repro.xmltree.parser as xml_parser
from repro.cli import main

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_DOCUMENT = "<book><sec><para><note><text>x</text></note></para></sec></book>"


def _child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout;
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return completed.stdout


def _loads_numpy(argv: list[str]) -> bool:
    """Whether ``repro.cli.main(argv)`` leaves numpy in ``sys.modules``
    of a fresh process (the command must succeed)."""
    out = _child(
        "import sys\n"
        "from repro.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    return out.splitlines()[-1] == "True"


@pytest.fixture(scope="module")
def index_dirs(tmp_path_factory):
    """A structural and a value-extended index over the same files."""
    root = tmp_path_factory.mktemp("cold")
    files = []
    for number in range(3):
        path = root / f"doc{number}.xml"
        path.write_text(_DOCUMENT)
        files.append(os.fspath(path))
    dirs = {}
    for name, extra in (("plain", []), ("values", ["--beta", "4"])):
        dirs[name] = os.fspath(root / name)
        argv = ["build", "--xml", *files, "--out", dirs[name], "--depth-limit", "8"]
        assert main(argv + extra) == 0
    return dirs


class TestImports:
    def test_structural_query_loads_no_numpy(self, index_dirs):
        assert not _loads_numpy(["query", index_dirs["plain"], "//sec//text"])

    def test_stats_loads_no_numpy(self, index_dirs):
        assert not _loads_numpy(["stats", index_dirs["plain"]])

    def test_value_twig_still_solves(self, index_dirs):
        query = '//sec[para/note/text = "x"]'
        assert _loads_numpy(["query", index_dirs["values"], query])

    def test_import_repro_loads_no_subpackage(self):
        out = _child(
            "import sys\n"
            "import repro\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
        )
        assert out.split() == ["repro", "repro._lazy"]

    @pytest.mark.parametrize("package", [repro, repro.core])
    def test_dir_lists_all(self, package):
        assert set(package.__all__) <= set(dir(package))
        for name in package.__all__:
            assert getattr(package, name) is not None, name
        with pytest.raises(AttributeError, match="no attribute 'Missing'"):
            package.Missing  # noqa: B018


# --------------------------------------------------------------------- #
# The XML name classes
# --------------------------------------------------------------------- #

#: every code point, lone surrogates included.
_EVERY_CHARACTER = "".join(map(chr, range(0x110000)))


@pytest.mark.parametrize(
    "module,start,later,flags",
    [
        pytest.param(
            xml_parser,
            r"[A-Za-z_:\u0080-\U0010FFFF]",
            r"[-A-Za-z0-9._:\u0080-\U0010FFFF]",
            re.ASCII,
            id="xmltree",
        ),
        pytest.param(
            query_parser,
            r"[A-Za-z_\u0080-\U0010FFFF]",
            r"[-A-Za-z0-9._\u0080-\U0010FFFF]",
            0,
            id="query",
        ),
    ],
)
def test_name_classes_accept_the_same_code_points(module, start, later, flags):
    for old, new in ((start, module._NAME_START), (later, module._NAME_CHAR)):
        rejected = re.sub(new, "", _EVERY_CHARACTER, flags=flags)
        assert rejected == re.sub(old, "", _EVERY_CHARACTER, flags=flags)
        assert 0 < len(rejected) < 128
    assert module._NAME_RE.pattern == module._NAME_START + module._NAME_CHAR + "*"
