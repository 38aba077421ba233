"""Count the lines of Python code in a package, with the standard library alone.

Run from the repository root::

    python tools/loc.py            # src/pmvr
    python tools/loc.py bench      # any directory of .py files

A line counts if it holds a token other than a comment: docstrings and
other multi-line strings count every line they span, while blank lines and
comment-only lines do not. It prints each module's count and the total.
"""

import os
import sys
import tokenize

_SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
         tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path):
    """The number of lines of ``path`` that hold a token other than a comment."""
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join("src", "pmvr")
    paths = sorted(
        os.path.join(top, name)
        for top, _, names in os.walk(root) for name in names if name.endswith(".py")
    )
    total = 0
    for path in paths:
        n = count(path)
        total += n
        print(f"{n:6d}  {os.path.relpath(path, root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
