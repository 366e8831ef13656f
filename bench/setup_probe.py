"""Print the seconds a fresh interpreter takes to import expreg and expreg.cli.

Run from the repository root; the package is imported from ./src and from
nowhere else.  Nothing but `os`, `sys` and `time` is imported first, so
the standard-library modules expreg pulls in are part of the time.
"""

import os
import sys
import time


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import expreg
    import expreg.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if not expreg.__file__.startswith(src + os.sep):
        print(f"expreg imported from {expreg.__file__}, not {src}", file=sys.stderr)
        return 2
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
