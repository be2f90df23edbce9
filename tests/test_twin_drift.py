"""The tracked ``_ckernels.c`` must be generated from the current
``_ckernels.pyx``: Cython quotes the source lines around every statement
it translates, and each quoted line must still read the same in the .pyx."""

import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "bsfrac"
HEADER = re.compile(r'/\* "bsfrac/_ckernels\.pyx":(\d+)$')
MARK = "             # <<<<<<<<<<<<<<"  # Cython's marker on the translated line


def _quoted_lines():
    """(pyx line number, quoted text) for every line of every quote block."""
    c_lines = (PKG / "_ckernels.c").read_text().splitlines()
    blocks = []
    for i, line in enumerate(c_lines):
        head = HEADER.match(line.strip())
        if not head:
            continue
        end = c_lines.index("*/", i)
        quoted = c_lines[i + 1:end]
        marked = [k for k, q in enumerate(quoted) if q.endswith(MARK)]
        assert len(marked) == 1 and all(q.startswith(" * ") for q in quoted), line
        first = int(head.group(1)) - marked[0]
        blocks.append([(first + k, q[3:].removesuffix(MARK)) for k, q in enumerate(quoted)])
    return blocks


def test_c_twin_quotes_the_current_pyx():
    pyx = (PKG / "_ckernels.pyx").read_text().splitlines()
    blocks = _quoted_lines()
    assert len(blocks) > 400  # every translated statement carries a block
    drift = [(n, text, pyx[n - 1]) for block in blocks for n, text in block
             if text != pyx[n - 1]]
    assert drift == [], f"{len(drift)} quoted line(s) differ from the .pyx: {drift[:5]}"
