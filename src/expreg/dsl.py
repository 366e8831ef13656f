"""On-disk text formats: systems (.xps), matrices (.mat), colouring specs.

Two input levels coexist: equation sugar ("eq X1 ^ Y1*Y2 = X3") for humans
and raw coefficient rows ("edge 1 3 : 1 1 0 0") for exact fixtures.  The
printer is canonical: single spaces, LF, no trailing whitespace, comments
dropped.  Colouring specs are spelled through one kind table, which the
parser and the printer share.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import search
from .eqsys import Edge, ExpSystem
from .rado import IntMatrix


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class IndexOutOfRange(ParseError):
    pass


# every character of a line starts a token or is skipped as blank space;
# one that starts none is `bad`, so one pass finds the first bad character.
# A symbol's kind is its own text; a cursor ends each line with an `end` token.
_TOKEN = re.compile(
    r"[ \t]*(?:(?P<word>[A-Za-z][A-Za-z0-9-]*)|(?P<num>-?\d+)|(?P<sym>[\^*=:])|(?P<bad>[^ \t]))"
)


def _tokenize(text: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        token = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}", lineno, m.start(kind) + 1)
        tokens.append((token if kind == "sym" else kind, token, m.start(kind) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens, lineno: int, line_len: int) -> None:
        self.tokens = tokens + [("end", "", line_len + 1)]
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self, expect: str, what: str):
        kind, text, col = tok = self.tokens[self.i]
        if kind != expect:
            found = "end of line" if kind == "end" else repr(text)
            raise ParseError(f"expected {what}, found {found}", self.lineno, col)
        self.i += 1
        return tok

    def done(self) -> None:
        kind, text, col = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing {text!r}", self.lineno, col)

    def int_token(self, what: str = "integer") -> int:
        _, text, _ = self.next("num", what)
        return int(text)


def _var_index(cur: _Cursor, prefix: str, n: int) -> int:
    kind, text, col = cur.next("word", f"{prefix}-variable")
    # a word's characters are ASCII, so isdigit() is the regex \d here
    digits = text[1:]
    if text[0] != prefix or not digits.isdigit():
        raise ParseError(f"expected {prefix}-variable, found {text!r}", cur.lineno, col)
    idx = int(digits)
    if not 1 <= idx <= n:
        raise IndexOutOfRange(f"{text} out of range 1..{n}", cur.lineno, col)
    return idx


def _parse_monomial(cur: _Cursor, n: int) -> tuple[int, ...]:
    coeffs = [0] * n
    if cur.peek()[:2] == ("num", "1"):
        cur.next("num", "'1'")
        return tuple(coeffs)
    while True:
        idx = _var_index(cur, "Y", n)
        exponent = 1
        if cur.peek()[0] == "^":
            cur.next("^", "'^'")
            exponent = cur.int_token("exponent")
        coeffs[idx - 1] += exponent  # repeated Y-variables sum their exponents
        if cur.peek()[0] != "*":
            break
        cur.next("*", "'*'")
    return tuple(coeffs)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_system(text: str) -> ExpSystem:
    """Parse a system document; whitespace- and comment-insensitive."""
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno, len(line))
        kind, word, col = cur.next("word", "statement keyword")
        if n is None:
            if word != "system":
                raise ParseError(f"expected 'system' header, found {word!r}", lineno, col)
            n = cur.int_token("variable count")
            if n < 1:
                raise ParseError("variable count must be at least 1", lineno, col)
            cur.done()
            continue
        if word == "system":
            raise ParseError("duplicate 'system' header", lineno, col)
        if word == "eq":
            tail = _var_index(cur, "X", n)
            cur.next("^", "'^'")
            coeffs = _parse_monomial(cur, n)
            cur.next("=", "'='")
            head = _var_index(cur, "X", n)
            cur.done()
            edges.append(Edge(tail, head, coeffs))
        elif word == "edge":
            _, tail_text, tail_col = cur.next("num", "tail vertex")
            _, head_text, head_col = cur.next("num", "head vertex")
            tail, head = int(tail_text), int(head_text)
            cur.next(":", "':'")
            if not 1 <= tail <= n:
                raise IndexOutOfRange(f"tail {tail} out of range 1..{n}", lineno, tail_col)
            if not 1 <= head <= n:
                raise IndexOutOfRange(f"head {head} out of range 1..{n}", lineno, head_col)
            coeffs = tuple(cur.int_token("coefficient") for _ in range(n))
            cur.done()
            edges.append(Edge(tail, head, coeffs))
        else:
            raise ParseError(f"unknown statement {word!r}", lineno, col)
    if n is None:
        raise ParseError("missing 'system' header", 1, 1)
    return ExpSystem(n, n, tuple(edges))


def _format_monomial(coeffs: tuple[int, ...]) -> str:
    factors = []
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        factors.append(f"Y{i}" if c == 1 else f"Y{i}^{c}")
    return "*".join(factors) if factors else "1"


def print_system(sys: ExpSystem) -> str:
    """Canonical document for a square system."""
    if not sys.is_square():
        raise ValueError("only square systems have a document form")
    lines = [f"system {sys.num_y}"]
    for e in sys.edges:
        lines.append(f"eq X{e.tail} ^ {_format_monomial(e.coeffs)} = X{e.head}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    """Whitespace-separated integer rows, one per line."""
    rows = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        row = []
        for kind, tok, col in tokens:
            if kind != "num":
                raise ParseError(f"expected integer, found {tok!r}", lineno, col)
            row.append(int(tok))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"row has {len(row)} entries, expected {width}", lineno, tokens[0][2]
            )
        rows.append(tuple(row))
    if not rows:
        raise ParseError("matrix needs at least one row", 1, 1)
    return IntMatrix(len(rows), len(rows[0]), tuple(rows))


def print_matrix(m: IntMatrix) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in m.entries)


# the spelling of each colouring kind: the parser reads it forwards, the
# printer backwards
_KINDS = {
    "const": search.Constant,
    "mod": search.Mod,
    "radop": search.RadoP,
    "radop-nu": search.RadoPNu,
    "omega": search.OmegaOf,
    "table": search.Table,
}
_KIND_NAMES = {cls: kind for kind, cls in _KINDS.items()}


def parse_colouring(text: str):
    """Colouring spec strings: const:C, mod:M, radop:P, radop-nu:P,
    omega:<spec>, table:<path>, and a table as print_colouring writes it,
    table[default D: c1 c2 ...]."""
    printed = re.fullmatch(r"table\[(default [^:]*):(.*)\]", text)
    if printed:
        return _parse_table(" ".join(printed.groups()))
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"expected 'kind:argument', found {text!r}", 1, 1)
    cls = _KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown colouring kind {kind!r}", 1, 1)
    arg_col = len(kind) + 2
    if cls is search.OmegaOf:
        return cls(parse_colouring(rest))
    if cls is search.Table:
        try:
            content = Path(rest).read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read table file: {exc}", 1, arg_col)
        return _parse_table(content)
    if not re.fullmatch(r"-?\d+", rest):
        raise ParseError(f"expected integer argument, found {rest!r}", 1, arg_col)
    try:
        return cls(int(rest))
    except ValueError as exc:  # NotPrime included
        raise ParseError(str(exc), 1, arg_col)


def _parse_table(content: str):
    tokens = content.split()
    default = 0
    if tokens and tokens[0] == "default":
        if len(tokens) < 2 or not re.fullmatch(r"-?\d+", tokens[1]):
            raise ParseError("'default' must be followed by an integer", 1, 1)
        default = int(tokens[1])
        tokens = tokens[2:]
    colours = []
    for tok in tokens:
        if not re.fullmatch(r"-?\d+", tok):
            raise ParseError(f"expected integer colour, found {tok!r}", 1, 1)
        colours.append(int(tok))
    try:
        return search.Table(tuple(colours), default)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1)


def print_colouring(spec) -> str:
    """The spelling parse_colouring reads; a table prints its colours, not
    the file they came from."""
    kind = _KIND_NAMES.get(type(spec))
    if kind is None:
        raise TypeError(f"not a colouring spec: {spec!r}")
    if kind == "table":
        body = " ".join(str(c) for c in spec.colours)
        return f"table[default {spec.default}: {body}]"
    (arg,) = spec._values()  # every other kind has one field
    return f"{kind}:{print_colouring(arg) if kind == 'omega' else arg}"
