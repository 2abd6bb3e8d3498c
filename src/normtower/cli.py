"""Command-line surface.

One binary, nine subcommands, deterministic output. Exit codes: 0 success,
1 usage or parse error, 2 domain verdict, 3 internal invariant violation
or any other unexpected exception.

The nine subcommands are declared once, in a table that both the
argparse parser and a plain-line reader are built from. A plain command
line, a subcommand then its own long options and positionals, is read
straight into the namespace argparse would build, and loads no argparse;
anything else goes through argparse, with its messages unchanged.
"""

import functools
import json
import re
import sys
import types
from fractions import Fraction

from .errors import InternalCheckError, NormTowerError
from .mvalue import format_m
from .numtheory import PRINTABLE, PRINTABLE_DIGITS


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _read_text(path):
    """The file at path, or stdin for "-", read as json.load reads it: in
    text mode, with the default encoding and universal newlines."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _parse_json(path, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
# Each handler imports the modules it runs, so that a call loads only
# those: start-up, not the math, is most of a typical call.


def _cmd_decompose(args):
    from . import galois_module

    # a plain module file is read straight into its matrix; any other text
    # is parsed as JSON, with the same answer and the same errors
    text = _read_text(args.file)
    mod = galois_module.read_plain_module(text)
    if mod is None:
        mod = galois_module.module_from_json(_parse_json(args.file, text))
    profile, shape = galois_module.decompose(mod)
    m = galois_module.m_from_shape(shape)
    payload = {
        "p": mod.p,
        "n": mod.n,
        "dim": mod.sigma.rows,
        "profile": list(profile),
        "free_ranks": list(shape.free_ranks),
        "exceptional": shape.exceptional,
        "m": format_m(m),
    }
    _emit(
        args,
        payload,
        [
            f"module over F_{mod.p}[C_{mod.p}^{mod.n}], dimension {mod.sigma.rows}",
            f"block sizes: {' '.join(map(str, profile))}",
            "free ranks:  " + " ".join(f"y{i}={y}" for i, y in enumerate(shape.free_ranks)),
            f"exceptional: {shape.exceptional if shape.exceptional is not None else 'none'}",
            f"m = {format_m(m)}",
        ],
    )
    return 0


def _cmd_synthesize(args):
    from . import galois_module

    ranks = tuple(int(x) for x in args.free_ranks.split(","))
    shape = galois_module.DecompositionShape(args.p, args.n, ranks, args.exceptional)
    mod = galois_module.synthesize(shape)
    payload = galois_module.module_to_json(mod)
    lines = [f"p = {mod.p}  n = {mod.n}  dim = {mod.sigma.rows}", "sigma:"]
    width = len(str(mod.p - 1))
    for row in mod.sigma.to_rows():
        lines.append("  " + " ".join(f"{x:>{width}}" for x in row))
    _emit(args, payload, lines)
    return 0


def _cmd_m_compute(args):
    from . import m_invariant

    spec = m_invariant.spec_from_json(_parse_json(args.spec, _read_text(args.spec)))
    result = m_invariant.explain_m(spec)
    payload = {
        "spec": m_invariant.spec_to_json(spec),
        "m": result.m_text,
        "evidence": list(result.evidence),
    }
    lines = [f"m = {result.m_text}"]
    lines.extend(f"  {item}" for item in result.evidence)
    _emit(args, payload, lines)
    return 0


def _cmd_find_prime(args):
    from . import m_invariant

    q = m_invariant.find_dirichlet_prime(args.p, args.n, args.limit)
    _emit(args, {"p": args.p, "n": args.n, "q": q}, [str(q)])
    return 0


_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"[\d_]+")


def _parse_rational(text):
    """A command-line rational. A zero denominator, or a numerator or
    denominator Python will not print, is a usage error.

    An exponent past len(text) + PRINTABLE_DIGITS makes one of the two that
    large (or the value 0), so it is refused before Fraction builds its
    power of ten; so is any run of more than PRINTABLE_DIGITS digits, which
    Fraction would not read.
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        bound = len(text) + PRINTABLE_DIGITS
        if len(digits) > len(str(bound)) or int(digits or 0) > bound:
            raise ValueError(f"{text!r} has an exponent past {bound}")
    if any(len(run.replace("_", "")) > PRINTABLE_DIGITS for run in _DIGIT_RUN.findall(text)):
        raise ValueError(f"{text!r} has a run of more than {PRINTABLE_DIGITS} digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    if abs(value.numerator) >= PRINTABLE or value.denominator >= PRINTABLE:
        raise ValueError(
            f"{text!r} has a numerator or denominator of more than {PRINTABLE_DIGITS} digits"
        )
    return value


def _cmd_hilbert(args):
    from . import padic

    a, b = _parse_rational(args.a), _parse_rational(args.b)
    if args.place == "all":
        report = padic.quaternion_splits_Q(a, b)
        payload = {
            "a": str(a),
            "b": str(b),
            "symbols": [[str(place), s] for place, s in report.symbols],
            "ramified": [str(place) for place in report.ramified],
            "splits": report.splits,
        }
        lines = [f"({a}, {b}) over Q:"]
        for place, s in report.symbols:
            lines.append(f"  place {str(place):>4}: {s:+d}")
        lines.append("  product: +1 (reciprocity)")
        lines.append(f"  splits: {'yes' if report.splits else 'no'}")
        _emit(args, payload, lines)
        return 0
    place = padic.INFINITE_PLACE if args.place == "inf" else int(args.place)
    s = padic.hilbert_symbol(a, b, place)
    _emit(
        args,
        {"a": str(a), "b": str(b), "place": str(place), "symbol": s},
        [str(s)],
    )
    return 0


def _cmd_cocycle_check(args):
    from . import cohomology

    a, b, r = args.a, args.b, args.r
    witness = cohomology.extension_isomorphism(a, b, r)
    payload = {
        "a": a,
        "b": b,
        "r": r,
        "q": witness.q,
        "cocycle_block": True,
        "cocycle_scaled": True,
        "invariant": witness.invariant,
        "isomorphic": True,
        # psi(i, j) = [i mod b + j mod b >= b] = psi(j, i): the extension is abelian
        "group_abelian": True,
        "group_order": a * r,
    }
    lines = [
        f"block-carry cocycle (a={a}, b={b}, r={r}): valid",
        f"scaled full-wrap cocycle (q={witness.q}): valid",
        f"shared class invariant mod gcd(a, r): {witness.invariant}",
        f"extensions isomorphic via (m, i) -> (m + i/b, i): yes (order {a * r}, abelian)",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_algebra(args):
    from . import cyclic_algebra

    tower = cyclic_algebra.FiniteFieldTower(args.l, args.d, args.r)
    cert = cyclic_algebra.split_certificate(tower, args.b)
    payload = {
        "l": args.l,
        "d": args.d,
        "r": args.r,
        "b": args.b,
        "field_order": tower.field.order,
        "norm_preimage": cert.w,
        "v_coeffs": list(cert.v.coeffs),
        "zero_divisor_coeffs": list(cert.z.coeffs),
    }
    lines = [
        f"algebra (F_{tower.field.order} / F_{args.l ** args.d}, tau, b={args.b})",
        f"norm preimage: N({cert.w}) = {args.b}",
        f"v = u w^-1 has coefficients {list(cert.v.coeffs)} and v^{args.r} = 1",
        f"zero divisor z with coefficients {list(cert.z.coeffs)}",
        "certificate verified: (v - 1) z = 0 and the regular matrix of z is singular",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_ufd_check(args):
    from . import ufd_norm

    report = ufd_norm.proposition_check(
        args.l, args.n, args.deg, g=args.g
    )
    payload = {
        "l": report.l,
        "n": report.n,
        "g": report.g,
        "deg_bound": report.deg_bound,
        "unit_norms": list(report.unit_norms),
        "nth_powers": list(report.nth_powers),
        "consistent": report.consistent,
        "representatives": report.representatives,
        "norm_classes": report.norm_classes,
    }
    lines = [
        f"l = {report.l}, n = {report.n}, {report.g} variables, degree <= {report.deg_bound}",
        f"representatives scanned: {report.representatives} "
        f"({report.norm_classes} norm classes)",
        f"constant unit norms: {{{', '.join(map(str, report.unit_norms))}}}",
        f"n-th powers in F_{report.l}^x: {{{', '.join(map(str, report.nth_powers))}}}",
        f"sets equal: {'yes' if report.consistent else 'NO'}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_verify_paper(args):
    from . import verify

    report = verify.run_checks(only=args.only, seed=args.seed)
    if not report.records:
        sys.stderr.write(f"no checks match prefix {args.only!r}\n")
        return 1
    _emit(args, report.to_json(), report.text_lines())
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# the subcommand table
# ---------------------------------------------------------------------------
# Each subcommand: name, handler, help, and rows of a flag (or a positional's
# name) and its add_argument kwargs; _build_parser and _plain_tables read it.

_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text", "help": "output format"})
_REQUIRED_INT = {"type": int, "required": True}

_COMMANDS = (
    ("decompose", _cmd_decompose, "Jordan profile, shape, and m of a module file", [
        ("file", {"help": "module JSON file, or - for stdin"}),
    ]),
    ("synthesize", _cmd_synthesize, "canonical module realizing a shape", [
        ("--p", _REQUIRED_INT),
        ("--n", _REQUIRED_INT),
        ("--free-ranks", {"required": True, "help": "comma-separated y_0,...,y_n"}),
        ("--exceptional", {"type": int, "default": None, "help": "exceptional m"}),
    ]),
    ("m-compute", _cmd_m_compute, "norm invariant m of a tower spec file", [
        ("--spec", {"required": True, "help": "tower spec JSON file, or - for stdin"}),
    ]),
    ("find-prime", _cmd_find_prime, "smallest prime q = 1 + p^n mod p^(n+1)", [
        ("--p", _REQUIRED_INT),
        ("--n", _REQUIRED_INT),
        ("--limit", {"type": int, "default": 10**6}),
    ]),
    ("hilbert", _cmd_hilbert, "Hilbert symbol (a, b) at a place", [
        ("--a", {"required": True, "help": "nonzero rational"}),
        ("--b", {"required": True, "help": "nonzero rational"}),
        ("--place", {"required": True, "help": "a prime, 'inf', or 'all' for every place"}),
    ]),
    ("cocycle-check", _cmd_cocycle_check,
     "carrying cocycles for (a, b, r): validity, invariant, isomorphism", [
        ("--a", _REQUIRED_INT),
        ("--b", _REQUIRED_INT),
        ("--r", _REQUIRED_INT),
    ]),
    ("algebra", _cmd_algebra,
     "cyclic algebra over a finite field tower: split certificate for b", [
        ("--l", {**_REQUIRED_INT, "help": "characteristic"}),
        ("--d", {"type": int, "default": 1, "help": "base degree over F_l"}),
        ("--r", {**_REQUIRED_INT, "help": "relative degree"}),
        ("--b", {**_REQUIRED_INT, "help": "base unit (encoded)"}),
    ]),
    ("ufd-check", _cmd_ufd_check, "constant unit norms of rational functions vs n-th powers", [
        ("--l", {**_REQUIRED_INT, "help": "coefficient field size"}),
        ("--n", {**_REQUIRED_INT, "help": "norm length (variable count unless --g)"}),
        ("--deg", {**_REQUIRED_INT, "help": "max degree of scanned numerators"}),
        ("--g", {"type": int, "default": None, "help": "number of variables"}),
    ]),
    ("verify-paper", _cmd_verify_paper, "run the full verification suite", [
        ("--seed", {"type": int, "default": 0, "help": "seed for the randomized property suites"}),
        ("--only", {"default": None, "help": "run checks whose id or name starts here"}),
    ]),
)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept: it holds no
    per-call state, and usage and help go to the sys.stdout and sys.stderr
    current at each call."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            sys.stderr.write(f"{self.prog}: error: {message}\n")
            raise SystemExit(1)

    # help shows the docstring without its last paragraph, which is about how argv is read
    parser = _Parser(prog="normtower", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for command, handler, help_text, rows in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        for flag, kwargs in (_FORMAT, *rows):
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _plain_tables():
    """For each subcommand, read once from its rows: its long options as
    (dest, type, choices), its positionals likewise, the option dests it
    requires, and the option defaults argparse sets before it reads argv."""
    tables = {}
    for command, handler, _, rows in _COMMANDS:
        options, positionals, required = {}, [], set()
        defaults = {"command": command}
        for flag, kwargs in (_FORMAT, *rows):
            dest = flag.lstrip("-").replace("-", "_")  # as argparse: --free-ranks is free_ranks
            entry = (dest, kwargs.get("type"), kwargs.get("choices"))
            if flag[:1] != "-":
                positionals.append(entry)
                continue
            options[flag] = entry
            if kwargs.get("required"):
                required.add(dest)
            else:
                defaults[dest] = kwargs.get("default")
        tables[command] = (options, positionals, required, {**defaults, "func": handler})
    return tables


def _read_plain(argv):
    """The namespace argparse builds from argv, when argv is a plain command
    line: a subcommand, then exact long options of its table as --k v or
    --k=v and exactly its positionals, each value non-empty, not "--", not
    led by "-" in the two-token form, and passing its row's type and
    choices, with every required option given. Else None."""
    table = _plain_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    options, positionals, required, defaults = table
    pairs, words = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        key, eq, text = token.partition("=")
        entry = options.get(key)
        if entry is None:
            return None
        if not eq:
            text = next(tokens, "-")  # a missing value reads as a "-"-led one
            if text[:1] == "-":
                return None
        pairs.append((entry, text))
    if len(words) != len(positionals):
        return None
    values = dict(defaults)
    for (dest, kind, choices), text in (*pairs, *zip(positionals, words)):
        if not text or text == "--":
            return None
        try:
            value = text if kind is None else kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return types.SimpleNamespace(**values) if required <= values.keys() else None


def _gives_dash_dash(argv):
    """Whether argv, before any lone "--", holds a token --k=-- in which k
    names an option of its subcommand: exactly, or as an abbreviation that
    argparse reads as that option alone."""
    table = _plain_tables().get(argv[0]) if argv else None
    if table is None:
        return False
    options = table[0]
    for token in argv[1:]:
        if token == "--":
            return False
        key, eq, text = token.partition("=")
        if eq and text == "--" and key[:2] == "--":
            named = [flag for flag in (*options, "--help") if flag.startswith(key)]
            if key in options or len(named) == 1 and named[0] in options:
                return True
    return False


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_plain(argv)
        if args is None:
            parser = _build_parser()
            # argparse reads "--k=--" as an empty list before 3.13 and as "--"
            # from 3.13 on, which meets k's type and choices; neither is a value
            if _gives_dash_dash(argv):
                parser.error("'--' is not a value")
            args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code or 0
    try:
        return args.func(args)
    except InternalCheckError as err:
        sys.stderr.write(f"internal invariant violated: {err}\n")
        return 3
    except NormTowerError as err:
        sys.stderr.write(f"{type(err).__name__}: {err}\n")
        return 2
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except Exception as err:
        sys.stderr.write(f"internal error: {type(err).__name__}: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
