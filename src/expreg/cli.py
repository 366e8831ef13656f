"""Command-line surface and the machine-readable decision report.

Exit codes for `decide`: 0 partition regular, 1 not partition regular,
2 error or inconclusive (parse failure, column budget, a `--p` prime
with no proof, internal error).  All output is deterministic: identical
inputs and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import sys as _sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import dsl, search, witness
from .eqsys import ExpSystem, normalize
from .graphs import LinearSystem, build_linear_system
from .rado import SelfCheckFailed, columns_property, is_prime, mod_proof, proof_primes, rado_colour
from .search import DEFAULT_CEILING
from .witness import Witness, find_positive_solution, lift, prime_omega

REPORT_VERSION = 4


class CommandError(RuntimeError):
    """Raised for any condition that must surface as exit code 2."""


# ---------------------------------------------------------------------------
# report assembly


def _system_json(sys: ExpSystem, relabel: dict[int, int] | None = None) -> dict:
    doc = {
        "num_vertices": sys.num_vertices,
        "num_y": sys.num_y,
        "edges": [
            {"tail": e.tail, "head": e.head, "coeffs": list(e.coeffs)} for e in sys.edges
        ],
    }
    if relabel is not None:
        doc["relabel"] = {str(old): new for old, new in relabel.items()}
    return doc


def _linear_json(lin: LinearSystem) -> dict:
    return {
        "num_cols": lin.matrix.num_cols,
        "rows": [list(row) for row in lin.matrix.entries],
        "cycles": [[list(step) for step in cyc] for cyc in lin.cycles],
    }


def _witness_json(w: Witness) -> dict:
    # verified, because lift raises SelfCheckFailed unless every edge holds;
    # x_i = a**(b**k_i) stays symbolic, y_i = b**z_i is written out
    return {
        "a": w.a,
        "b": w.b,
        "z": list(w.z),
        "k": list(w.k),
        "xs": [{"kind": "tower", "base": w.a, "expbase": w.b, "level": k} for k in w.k],
        "ys": [{"kind": "plain", "value": w.b**z} for z in w.z],
        "verified": True,
    }


def _witness_warnings(lin: LinearSystem, k) -> list[str]:
    # a representative's raw path sum is 0, so its level is exactly the
    # shift compute_k applied to its component
    return [
        f"tower levels shifted up by {k[rep - 1]} in the component of vertex {rep}"
        for rep in sorted(set(lin.reps.values()))
        if k[rep - 1] > 0
    ]


def build_decision_report(
    text: str,
    source: str = "<string>",
    want_witness: bool = False,
    a: int = 2,
    b: int = 2,
    prime: int | str = "auto",
    verify_bound: int | None = None,
) -> dict:
    """Run the full decision pipeline on a system document.

    A not-PR verdict carries the mod-p proof of the first prime that has
    one (`rado.mod_proof`): on "auto" some prime always does, and a None
    there raises SelfCheckFailed.  Only with a `verify_bound` does the
    exhaustive search run, once, on that prime's colouring, as an
    empirical cross-check; a solution it finds contradicts the proof and
    raises SelfCheckFailed.

    Raises dsl.ParseError, CommandError (a `prime` that is neither "auto"
    nor a prime, or a given prime with no proof), ValueError (a
    `verify_bound` below 2, whatever the verdict), or ColumnBudgetExceeded;
    any of those means exit code 2 for the CLI.  The parser range-checks
    every index and reads exactly n coefficients per edge, so its systems
    are valid.
    """
    candidates = None
    if prime != "auto":
        try:
            p = int(prime)
        except ValueError:
            p = 0
        if not is_prime(p):
            raise CommandError(f"--p must be prime, got {prime}")
        candidates = (p,)
    if verify_bound is not None:
        search.check_var_bound(verify_bound)
    sys0 = dsl.parse_system(text)
    nsys, relabel = normalize(sys0)
    lin = build_linear_system(nsys)
    # decided before the report is built, so a column budget cuts it short
    part = columns_property(lin.matrix)

    warnings = []
    if nsys.num_vertices < sys0.num_vertices:
        warnings.append(
            f"identity equations merged {sys0.num_vertices} vertices into {nsys.num_vertices}"
        )
    if nsys.has_loops():
        warnings.append("loop equations present; each contributes a one-edge cycle row")
    if nsys.has_parallel_edges():
        warnings.append("parallel edges encode several exponent vectors on one vertex pair")

    report = {
        "version": REPORT_VERSION,
        "input": {
            "source": source,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "num_variables": sys0.num_y,
        },
        "normalized": _system_json(nsys, relabel),
        "linear_system": _linear_json(lin),
        "witness": None,
    }
    if part is not None:
        report["verdict"] = "PR"
        report["certificate"] = {
            "type": "columns-partition",
            "blocks": [list(block) for block in part.blocks],
            "trivial": lin.matrix.num_rows == 0,
        }
        if want_witness:
            try:
                w = lift(lin, find_positive_solution(lin.matrix, part), a, b)
            except witness.WitnessTooLarge as exc:
                warnings.append(f"witness omitted: {exc}")
            else:
                warnings.extend(_witness_warnings(lin, w.k))
                report["witness"] = _witness_json(w)
    else:
        report["verdict"] = "not PR"
        proof = mod_proof(lin.matrix, candidates or proof_primes(lin.matrix))
        if proof is None and candidates is None:
            raise SelfCheckFailed("no prime proves a matrix without the columns property")
        if proof is None:
            raise CommandError(
                f"no candidate prime in {list(candidates)} proves that its radop-nu"
                " colouring forbids the system; refusing to guess"
            )
        p = proof.prime
        colouring = search.RadoPNu(p)
        cert = {
            "type": "forbidding-colouring",
            "colouring": dsl.print_colouring(colouring),
            "prime": p,
            "proof": {
                "prime": p,
                "level": proof.level,
                "blocks": [list(block) for block in proof.blocks],
            },
        }
        if verify_bound is not None:
            outcome = search.search_exp(nsys, colouring, verify_bound, DEFAULT_CEILING, lin)
            if outcome.found:
                raise SelfCheckFailed(
                    f"{cert['colouring']} colours {outcome.assignment} with one colour,"
                    f" against its mod-{p} proof"
                )
            cert["verification"] = {
                "type": "empirical-cross-check",
                "var_bound": verify_bound,
                "ceiling": DEFAULT_CEILING,
                "skipped": outcome.skipped,
                "outcome": "exhausted-no-solution",
            }
        report["certificate"] = cert
    report["warnings"] = warnings
    return report


# ---------------------------------------------------------------------------
# rendering


def _dump_json(doc) -> str:
    """The report text: exactly json.dumps(doc, indent=2, sort_keys=True) + "\n".

    json.dumps runs its pure-Python encoder whenever indent is set, one
    call per value.  Report bodies are mostly long, sparse lists of ints
    (coefficient rows, z and k); this writes each nonzero entry on its own
    and each run of zeros as one repeated string.  Accepts dicts with str
    keys, lists, str, int, bool and None, and raises TypeError on anything
    else.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, nl: str, out: list[str]) -> None:
    # nl is a newline plus the indentation of the line value starts on
    kind = type(value)
    if kind is str:
        out.append(_json_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        opener = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, got {key!r}")
            item = value[key]
            head = opener + _json_str(key) + ": "
            if type(item) is str:
                out.append(head + _json_str(item))
            elif type(item) is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write_json(item, inner, out)
            opener = "," + inner
        out.append(nl + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, value)) == {int}:
            # bool is a subclass of int, but not of this exact type; the
            # first entry's separator loses its comma
            out.append("[" + _int_items(value, sep)[1:] + nl + "]")
            return
        opener = "[" + inner
        for item in value:
            out.append(opener)
            _write_json(item, inner, out)
            opener = sep
        out.append(nl + "]")
    else:
        raise TypeError(f"cannot write {kind.__name__} into a report")


def _int_items(ints: list[int], sep: str) -> str:
    """sep before every entry, each run of zeros as one repeated string."""
    zero = sep + "0"
    parts = []
    last = -1
    for i in itertools.compress(range(len(ints)), ints):
        parts.append(zero * (i - last - 1) + sep + int.__repr__(ints[i]))
        last = i
    parts.append(zero * (len(ints) - 1 - last))
    return "".join(parts)


def _tower_text(doc: dict) -> str:
    if doc["kind"] == "plain":
        return str(doc["value"])
    return f"{doc['base']}^({doc['expbase']}^{doc['level']})"


def _witness_line(w: dict) -> str:
    """The witness doc's one-line summary, as decide and witness print it."""
    z_text, k_text = ",".join(map(str, w["z"])), ",".join(map(str, w["k"]))
    return f"a={w['a']} b={w['b']} z=({z_text}) k=({k_text}) verified={w['verified']}"


def _render_decision(report: dict) -> str:
    lines = [f"verdict: {report['verdict']}"]
    lin = report["linear_system"]
    lines.append(f"linear system: {len(lin['rows'])} rows x {lin['num_cols']} cols")
    for i, row in enumerate(lin["rows"], start=1):
        lines.append(f"  row {i}: " + " ".join(str(v) for v in row))
    cert = report["certificate"]
    if cert["type"] == "columns-partition":
        blocks = " ".join(
            "S{}={{{}}}".format(i, ",".join(str(j) for j in block))
            for i, block in enumerate(cert["blocks"])
        )
        suffix = " (no cycle constraints)" if cert["trivial"] else ""
        lines.append(f"certificate: columns partition {blocks}{suffix}")
    else:
        proof = cert["proof"]
        lines.append(
            f"certificate: forbidding colouring {cert['colouring']} "
            f"(proved mod {proof['prime']}: no admissible block at level {proof['level']})"
        )
        ver = cert.get("verification")
        if ver is not None:
            lines.append(
                f"empirical cross-check: no monochromatic solution up to variable bound"
                f" {ver['var_bound']}, ceiling {ver['ceiling']}, {ver['skipped']} skipped"
            )
    w = report["witness"]
    if w is not None:
        lines.append("witness: " + _witness_line(w))
        lines.append("  x = " + ", ".join(_tower_text(t) for t in w["xs"]))
        lines.append("  y = " + ", ".join(_tower_text(t) for t in w["ys"]))
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _search_report_json(rep: search.SearchReport) -> dict:
    return {
        "version": REPORT_VERSION,
        "var_low": rep.var_low,
        "var_high": rep.var_high,
        "ceiling": rep.ceiling,
        "num_variables": rep.num_variables,
        "outcome": "found" if rep.found else "exhausted-no-solution",
        "assignment": list(rep.assignment) if rep.assignment is not None else None,
        "skipped": rep.skipped,
    }


def _render_search(rep: search.SearchReport) -> str:
    if rep.found:
        line = "found: " + " ".join(str(v) for v in rep.assignment)
    else:
        line = "exhausted: no monochromatic solution"
    return f"{line} (bounds [{rep.var_low},{rep.var_high}], skipped {rep.skipped})\n"


# ---------------------------------------------------------------------------
# subcommands


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")


def _cmd_decide(args) -> int:
    report = build_decision_report(
        _read(args.file),
        source=Path(args.file).name,
        want_witness=args.witness,
        a=args.a,
        b=args.b,
        prime=args.p,
        verify_bound=args.verify_bound,
    )
    _sys.stdout.write(_dump_json(report) if args.json else _render_decision(report))
    return 0 if report["verdict"] == "PR" else 1


def _emit(args, doc: dict, text: str) -> int:
    """Write the --json form of a result or its text form; exit code 0."""
    _sys.stdout.write(_dump_json(doc) if args.json else text)
    return 0


def _cmd_linearize(args) -> int:
    nsys, _ = normalize(dsl.parse_system(_read(args.file)))
    lin = build_linear_system(nsys)
    return _emit(args, _linear_json(lin), dsl.print_matrix(lin.matrix))


def _cmd_witness(args) -> int:
    nsys, _ = normalize(dsl.parse_system(_read(args.file)))
    lin = build_linear_system(nsys)
    if args.z is not None:
        try:
            z = tuple(int(part) for part in args.z.split(","))
        except ValueError:
            raise CommandError(f"--z expects a comma-separated integer vector, got {args.z!r}")
    else:
        part = columns_property(lin.matrix)
        if part is None:
            raise CommandError("the system is not partition regular; give a solution with --z")
        z = find_positive_solution(lin.matrix, part)
    doc = _witness_json(lift(lin, z, args.a, args.b))
    return _emit(args, doc, _witness_line(doc) + "\n")


def _cmd_search(args) -> int:
    nsys, _ = normalize(dsl.parse_system(_read(args.file)))
    colouring = dsl.parse_colouring(args.colouring)
    try:
        rep = search.search_exp(nsys, colouring, args.var_bound, args.ceiling)
    except search.Uncoloured as exc:
        raise CommandError(f"colouring {args.colouring} is undefined at {exc.value}")
    return _emit(args, _search_report_json(rep), _render_search(rep))


def _cmd_colouring(args) -> int:
    spec = dsl.parse_colouring(args.spec)
    try:
        colour = search.colour_of(spec, args.eval)
    except ValueError:
        raise CommandError(f"colouring {args.spec} is undefined at {args.eval}")
    return _emit(args, {"spec": args.spec, "x": args.eval, "colour": colour}, f"{colour}\n")


def _cmd_nu(args) -> int:
    value = prime_omega(args.x)
    return _emit(args, {"x": args.x, "omega": value}, f"{value}\n")


def _cmd_cp(args) -> int:
    colour = rado_colour(args.p, args.x)
    return _emit(args, {"p": args.p, "x": args.x, "colour": colour}, f"{colour}\n")


def _number_text(value: int | None, limit: int) -> str:
    return f"{value}\n" if value is not None else f"exceeds {limit}\n"


def _cmd_rado_number(args) -> int:
    matrix = dsl.parse_matrix(_read(args.file))
    value = search.rado_number(matrix, args.colours, args.max)
    doc = {"colours": args.colours, "max": args.max, "value": value}
    return _emit(args, doc, _number_text(value, args.max))


def _cmd_vdw(args) -> int:
    value = search.vdw_number(args.colours, args.length, args.max)
    doc = {"colours": args.colours, "length": args.length, "max": args.max, "value": value}
    return _emit(args, doc, _number_text(value, args.max))


# ---------------------------------------------------------------------------
# argument parsing


def _base(value: str) -> int:
    v = int(value)
    if v < 2:
        raise argparse.ArgumentTypeError("witness bases must be at least 2")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expreg",
        description="Decide partition regularity of exponential equation systems "
        "and emit machine-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="classify a system and attach a certificate")
    p.add_argument("file", help="system document (.xps)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--witness", action="store_true", help="attach a lifted tower witness")
    p.add_argument("--a", type=_base, default=2)
    p.add_argument("--b", type=_base, default=2)
    p.add_argument("--p", default="auto", help="forbidding prime, or 'auto'")
    p.add_argument(
        "--verify-bound", type=int, help="cross-check a not-PR proof by exhaustive search"
    )
    p.set_defaults(run=_cmd_decide)

    p = sub.add_parser("linearize", help="print the cycle-indexed linear system")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_linearize)

    p = sub.add_parser("witness", help="lift a solution of the linear side")
    p.add_argument("file")
    p.add_argument("--z", help="comma-separated solution (default: built from the partition)")
    p.add_argument("--a", type=_base, default=2)
    p.add_argument("--b", type=_base, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_witness)

    p = sub.add_parser("search", help="exhaustive monochromatic search on a system")
    p.add_argument("file")
    p.add_argument("--colouring", required=True)
    p.add_argument("--var-bound", type=int, default=12)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("colouring", help="evaluate a colouring spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--eval", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_colouring)

    p = sub.add_parser("nu", help="prime factors counted with multiplicity")
    p.add_argument("x", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_nu)

    p = sub.add_parser("cp", help="lowest nonzero base-p digit")
    p.add_argument("p", type=int)
    p.add_argument("x", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_cp)

    p = sub.add_parser("rado-number", help="least N forcing a monochromatic solution")
    p.add_argument("file", help="matrix document (.mat)")
    p.add_argument("--colours", type=int, required=True)
    p.add_argument("--max", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_rado_number)

    p = sub.add_parser("vdw", help="van der Waerden number by exhaustion")
    p.add_argument("--colours", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_vdw)

    return parser


# building the parser takes longer than deciding a small system, and
# parse_args leaves it unchanged, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (CommandError, ValueError) as exc:
        # dsl.ParseError, ColumnBudgetExceeded and NotPrime are ValueErrors
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:
        # a defect must not read as exit 1, which means "not PR"
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
