"""Command-line surface.

One binary, nine subcommands, deterministic output. Exit codes: 0 success,
1 usage or parse error, 2 domain verdict, 3 internal invariant violation
or any other unexpected exception.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import cohomology, cyclic_algebra, galois_module, m_invariant, padic
from . import ufd_norm, verify
from .errors import InternalCheckError, NormTowerError
from .mvalue import format_m
from .numtheory import PRINTABLE, PRINTABLE_DIGITS


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: invalid JSON: {err}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_decompose(args):
    mod = galois_module.module_from_json(_load_json(args.file))
    profile, shape = galois_module.decompose(mod)
    m = galois_module.m_from_shape(shape)
    payload = {
        "p": mod.p,
        "n": mod.n,
        "dim": mod.sigma.rows,
        "profile": list(profile.sizes),
        "free_ranks": list(shape.free_ranks),
        "exceptional": shape.exceptional,
        "m": format_m(m),
    }
    _emit(
        args,
        payload,
        [
            f"module over F_{mod.p}[C_{mod.p}^{mod.n}], dimension {mod.sigma.rows}",
            f"block sizes: {' '.join(map(str, profile.sizes))}",
            "free ranks:  "
            + " ".join(
                f"y{i}={y}" for i, y in enumerate(shape.free_ranks)
            ),
            f"exceptional: {shape.exceptional if shape.exceptional is not None else 'none'}",
            f"m = {format_m(m)}",
        ],
    )
    return 0


def _cmd_synthesize(args):
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
    spec = m_invariant.spec_from_json(_load_json(args.spec))
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
    q = m_invariant.find_dirichlet_prime(args.p, args.n, args.limit)
    _emit(args, {"p": args.p, "n": args.n, "q": q}, [str(q)])
    return 0


_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _parse_rational(text):
    """A command-line rational. A zero denominator, or a numerator or
    denominator Python will not print, is a usage error.

    An exponent past len(text) + PRINTABLE_DIGITS makes one of the two that
    large (or the value 0), so it is refused before Fraction builds its
    power of ten.
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        bound = len(text) + PRINTABLE_DIGITS
        if len(digits) > len(str(bound)) or int(digits or 0) > bound:
            raise ValueError(f"{text!r} has an exponent past {bound}")
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
    a, b, r = args.a, args.b, args.r
    witness = cohomology.extension_isomorphism(a, b, r)
    # each ExtensionGroup checked its cocycle once, when the witness built it
    inv_psi, inv_phi = witness.target.invariant(), witness.source.invariant()
    if inv_psi != inv_phi:
        raise InternalCheckError("isomorphic extensions with different invariants")
    abelian = witness.target.is_abelian()
    payload = {
        "a": a,
        "b": b,
        "r": r,
        "q": witness.q,
        "cocycle_block": True,
        "cocycle_scaled": True,
        "invariant": inv_psi,
        "isomorphic": True,
        "group_abelian": abelian,
        "group_order": witness.target.order,
    }
    lines = [
        f"block-carry cocycle (a={a}, b={b}, r={r}): valid",
        f"scaled full-wrap cocycle (q={witness.q}): valid",
        f"shared class invariant mod gcd(a, r): {inv_psi}",
        f"extensions isomorphic via (m, i) -> (m + i/b, i): yes "
        f"(order {witness.target.order}, "
        f"{'abelian' if abelian else 'nonabelian'})",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_algebra(args):
    tower = cyclic_algebra.FiniteFieldTower(args.l, args.d, args.r)
    if not tower.is_in_base(args.b) or args.b == 0:
        raise ValueError(f"b = {args.b} is not a unit of the base field")
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
    report = verify.run_checks(only=args.only, seed=args.seed)
    if not report.records:
        sys.stderr.write(f"no checks match prefix {args.only!r}\n")
        return 1
    _emit(args, report.to_json(), report.text_lines())
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept: it holds no
    per-call state, and usage and help go to the sys.stdout and sys.stderr
    current at each call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser = _Parser(prog="normtower", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser(
        "decompose", parents=[common], help="Jordan profile, shape, and m of a module file"
    )
    p.add_argument("file", help="module JSON file, or - for stdin")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "synthesize", parents=[common], help="canonical module realizing a shape"
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--free-ranks", required=True, help="comma-separated y_0,...,y_n"
    )
    p.add_argument("--exceptional", type=int, default=None, help="exceptional m")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser(
        "m-compute", parents=[common], help="norm invariant m of a tower spec file"
    )
    p.add_argument("--spec", required=True, help="tower spec JSON file, or - for stdin")
    p.set_defaults(func=_cmd_m_compute)

    p = sub.add_parser(
        "find-prime", parents=[common], help="smallest prime q = 1 + p^n mod p^(n+1)"
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--limit", type=int, default=10**6)
    p.set_defaults(func=_cmd_find_prime)

    p = sub.add_parser(
        "hilbert", parents=[common], help="Hilbert symbol (a, b) at a place"
    )
    p.add_argument("--a", required=True, help="nonzero rational")
    p.add_argument("--b", required=True, help="nonzero rational")
    p.add_argument(
        "--place", required=True, help="a prime, 'inf', or 'all' for every place"
    )
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser(
        "cocycle-check",
        parents=[common],
        help="carrying cocycles for (a, b, r): validity, invariant, isomorphism",
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_cocycle_check)

    p = sub.add_parser(
        "algebra",
        parents=[common],
        help="cyclic algebra over a finite field tower: split certificate for b",
    )
    p.add_argument("--l", type=int, required=True, help="characteristic")
    p.add_argument("--d", type=int, default=1, help="base degree over F_l")
    p.add_argument("--r", type=int, required=True, help="relative degree")
    p.add_argument("--b", type=int, required=True, help="base unit (encoded)")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser(
        "ufd-check",
        parents=[common],
        help="constant unit norms of rational functions vs n-th powers",
    )
    p.add_argument("--l", type=int, required=True, help="coefficient field size")
    p.add_argument("--n", type=int, required=True, help="norm length (variable count unless --g)")
    p.add_argument("--deg", type=int, required=True, help="max degree of scanned numerators")
    p.add_argument("--g", type=int, default=None, help="number of variables")
    p.set_defaults(func=_cmd_ufd_check)

    p = sub.add_parser(
        "verify-paper", parents=[common], help="run the full verification suite"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized property suites")
    p.add_argument("--only", default=None, help="run checks whose id or name starts here")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops a lone "--" even from "--p=--", leaving an empty list
        if [] in vars(args).values():
            parser.error("'--' is not a value")
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
    except (ValueError, KeyError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except Exception as err:
        sys.stderr.write(f"internal error: {type(err).__name__}: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
