"""Command-line surface.

Every operation is reachable as `<group> <subcommand>`; results are printed
as key/value text or, with --json, as one canonical JSON document per
invocation, usage errors included (sorted keys, compact separators, every
exact value carried as a string).  Exit codes: 0 success, 2 input error,
3 precondition violation.

Each handler imports the domain modules it runs, and `json` and `fractions`
load where they are used, so building the parser, --help and text-mode
usage errors load none of them.  Every call builds the root, group and
subcommand parsers, but a subcommand's parser adds its flags only when the
argv selects it.
"""

import argparse
import functools
import re
import sys
from collections import namedtuple

from .errors import DomainError, InputError, check_literals, first_unprintable_power, printable

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3


class _UsageError(Exception):
    """An argparse usage error, held back so that `run` can report it as
    JSON when the argv asks for JSON."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # any -<digit> or -.<digit> token is a value, so `--target -1/2` parses
    # like `--target=-1/2`; the pattern argparse sets on Python 3.11 admits
    # only -<digits> and -<digits>.<digits>.  No flag here starts that way.
    _NEGATIVE_NUMBER = re.compile(r"-\.?\d")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(self, message)


class _CommandParser(_Parser):
    """A subcommand's parser, which adds its flags and handler the first time
    it parses.  argparse calls its `parse_known_args` exactly when the argv
    selects the subcommand, so a run, its --help and every usage error the
    subcommand raises see the flags; the root and group parsers' help and
    errors name only subcommands, so a build adds no flag the argv never
    reaches."""

    def __init__(self, *args, flags, handler, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = flags, handler

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            flags, handler = self._pending
            self._pending = None
            for flag in flags + ("--json",):
                self.add_argument(flag, **_FLAGS[flag])
            self.set_defaults(handler=handler)
        return super().parse_known_args(args, namespace)


class CommandResult(namedtuple("CommandResult", "command inputs result status diagnostics",
                                defaults=("ok", ()))):
    """The outcome of one command, built once when it ends; results with
    equal fields compare equal, and none is hashable, since `inputs` is a
    dict."""

    __slots__ = ()

    def to_json(self) -> str:
        import json

        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = []
        if self.status != "ok":
            lines.append(f"status: {self.status}")
            lines.extend(f"error: {d}" for d in self.diagnostics)
            return "\n".join(lines)
        for key, value in (self.result or {}).items():
            if isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key}: {value}")
        return "\n".join(lines)


def _parse_fraction(text: str, what: str) -> "Fraction":
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed {what}: {text!r}") from None


def _parse_q(ns, flag: str = "q"):
    """Build the p-adic operand from --p/--prec and an integer or a digit
    list like `[0,1,0,0]`, `[5]` (a bracketed text is always a list) or
    `0,1,0,0`."""
    from . import padic

    raw = getattr(ns, flag)
    if raw is None:
        raise InputError(f"--{flag} is required")
    text = raw.strip()
    bracketed = text.startswith("[") and text.endswith("]")
    if bracketed:
        text = text[1:-1]
    if bracketed or "," in text:
        try:
            digits = tuple(int(s) for s in text.split(","))
        except ValueError:
            raise InputError(f"malformed digit list for --{flag}: {raw!r}") from None
        if ns.prec is not None and ns.prec != len(digits):
            raise InputError(
                f"--prec {ns.prec} does not match digit list length {len(digits)}"
            )
        return padic.PAdicInt(ns.p, digits)
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"--{flag} must be an integer or digit list, got {raw!r}") from None
    if ns.prec is None:
        raise InputError(f"--prec is required when --{flag} is an integer")
    return padic.padic_from_integer(value, ns.p, ns.prec)


def _fraction(x: "Fraction") -> str:
    printable(x.numerator, x.denominator)
    return str(x)


def _residue(x) -> str:
    # also bounds every a_n <= x.value that a command prints next to it
    printable(x.value)
    return str(x)


def _cmd_padic_canon(ns):
    from . import padic

    q = _parse_q(ns)
    q_text = _residue(q)
    seq = padic.canonical_sequence(q)
    return {
        "p": q.p,
        "precision": q.precision,
        "q": q_text,
        "entries": list(seq.entries),
    }


def _cmd_padic_arith(ns):
    from . import padic

    x = _parse_q(ns, "x")
    y = _parse_q(ns, "y") if ns.y is not None else None
    out = padic.arithmetic(ns.op, x, y)
    return {
        "op": ns.op,
        "result": _residue(out),
        "digits": list(out.digits),
    }


def _cmd_gamma_gens(ns):
    from . import gamma

    q = _parse_q(ns)
    # generator n > v reduces to u_n / p^(n-v) with u_n = (q mod p^n) / p^v <
    # p^(n-v), and n <= v gives 0, so the first that cannot print is n = v + k,
    # k the least with p^k past the limit; refuse it before building the rest
    k = first_unprintable_power(q.p)
    if k is not None and not q.is_zero() and (v := q.valuation()) + k <= q.precision:
        pv, pk = q.p ** v, q.p ** k
        printable(q.value % (pv * pk) // pv, pk)
    return {"generators": [str(g) for g in gamma.gamma_generators(q)]}


def _cmd_gamma_group(ns):
    from . import gamma

    q = _parse_q(ns)
    return {"generator": _fraction(gamma.gamma_group(q).generator)}


def _cmd_gamma_prufer_check(ns):
    from . import gamma

    q = _parse_q(ns)
    report = gamma.prufer_relations_check(q)
    return {
        "p_gamma1_zero": report.p_gamma1_zero,
        "relations": [
            {"n": r.n, "holds": r.holds, "discrepancy": r.discrepancy}
            for r in report.relations
        ],
        "levels": list(report.levels),
        "unbounded_order": report.unbounded_order,
        "all_hold": report.all_hold,
    }


def _cmd_gamma_contains_one(ns):
    from . import gamma

    q = _parse_q(ns)
    report = gamma.contains_one_report(q)
    return {"contains_one": report.contains_one, "content": report.content}


def _cmd_gamma_density(ns):
    from . import gamma

    q = _parse_q(ns)
    target = _parse_fraction(ns.target, "--target")
    epsilon = _parse_fraction(ns.epsilon, "--epsilon")
    w = gamma.density_witness(q, target, epsilon)
    return {"witness": _fraction(w.witness), "distance": _fraction(w.distance)}


def _cmd_gamma_limit(ns):
    from . import gamma, supernatural

    q = _parse_q(ns)
    limit = gamma.supernatural_limit(q)
    return {
        "sn": supernatural.format_supernatural(limit.sn),
        "scale": limit.scale,
        "stabilized": limit.stabilized,
    }


def _cmd_uhf_k0(ns):
    from . import supernatural

    desc = supernatural.parse_descriptor(ns.desc)
    return {
        "descriptor": supernatural.format_descriptor(desc),
        "k0": supernatural.format_supernatural(supernatural.k0_of(desc)),
    }


def _cmd_uhf_stable_iso(ns):
    from . import supernatural

    n = supernatural.parse_supernatural(ns.n)
    n2 = supernatural.parse_supernatural(ns.n2)
    decision = supernatural.stably_isomorphic(n, n2)
    doc = {"equal": decision.equal}
    if decision.witness is not None:
        doc["witness"] = {"r": decision.witness[0], "s": decision.witness[1]}
    return doc


def _cmd_uhf_from_tate(ns):
    from . import supernatural

    q = _parse_q(ns)
    out = supernatural.uhf_from_tate(q)
    doc = {
        "descriptor": supernatural.format_descriptor(out.descriptor),
        "k0": supernatural.format_supernatural(out.k0),
        "scale": out.scale,
    }
    if out.label is not None:
        doc["label"] = out.label
    return doc


def _cmd_tate_coeffs(ns):
    from . import tate

    q = _parse_q(ns)
    coeffs = tate.tate_coefficients(q)
    return {
        "a4": _residue(coeffs.a4),
        "a6": _residue(coeffs.a6),
        "a4_digits": list(coeffs.a4.digits),
        "a6_digits": list(coeffs.a6.digits),
        "terms_used": coeffs.terms_used,
        "q_valuation": coeffs.q_valuation,
    }


def _cmd_dual_pair(ns):
    from . import duality, gamma

    z = _parse_q(ns, "z")
    # the exponent of a/p^k decides a precision error before p**k is built
    level = gamma.prufer_level(ns.gamma, ns.p)
    if level is not None:
        duality.check_precision(z, level)
    g = gamma.parse_prufer(ns.gamma, ns.p)
    value = duality.pair(z, g)
    printable(g.numerator)
    return {"z": _residue(z), "gamma": str(g), "value": _fraction(value.value)}


def _cmd_dual_check(ns):
    from . import duality

    report = duality.perfectness_check(ns.p, ns.level)
    return {
        "p": report.p,
        "level": report.level,
        "modulus": report.modulus,
        "left_nondegenerate": report.left_nondegenerate,
        "right_nondegenerate": report.right_nondegenerate,
        "bilinear": report.bilinear,
        "perfect": report.perfect,
        "counterexamples": [str(c) for c in report.counterexamples],
    }


# every flag is declared once; a command lists the flags it takes, in order
_FLAGS = {
    "--p": dict(type=int, required=True, help="prime"),
    "--prec": dict(type=int, help="precision N"),
    "--q": dict(help="integer or digit list [c0,c1,...]"),
    # padic.ARITHMETIC_OPS in its order, spelled out so the parser needs no padic
    "--op": dict(required=True, choices=("add", "neg", "mul", "invert")),
    "--x": dict(required=True, help="integer or digit list"),
    "--y": dict(help="second operand where needed"),
    "--target": dict(required=True, help="rational a/b"),
    "--epsilon": dict(required=True, help="positive rational a/b"),
    "--desc": dict(required=True, help="descriptor, e.g. 'sizes=2,4,8' or 'sizes=;tail=2'"),
    "--n": dict(required=True, help="supernatural, e.g. 2^inf*3^2"),
    "--n2": dict(required=True),
    "--z": dict(required=True, help="integer or digit list"),
    "--gamma": dict(required=True, help="torsion element a/p^n"),
    "--level": dict(type=int, required=True),
    "--json": dict(action="store_true", help="emit one JSON document"),
}
_PADIC = ("--p", "--prec", "--q")

# (group, subcommand, handler, flags), in the order the parsers are built
_COMMANDS = (
    ("padic", "canon", _cmd_padic_canon, _PADIC),
    ("padic", "arith", _cmd_padic_arith, ("--op", "--p", "--prec", "--x", "--y")),
    ("gamma", "gens", _cmd_gamma_gens, _PADIC),
    ("gamma", "group", _cmd_gamma_group, _PADIC),
    ("gamma", "prufer-check", _cmd_gamma_prufer_check, _PADIC),
    ("gamma", "contains-one", _cmd_gamma_contains_one, _PADIC),
    ("gamma", "density", _cmd_gamma_density, _PADIC + ("--target", "--epsilon")),
    ("gamma", "limit", _cmd_gamma_limit, _PADIC),
    ("uhf", "k0", _cmd_uhf_k0, ("--desc",)),
    ("uhf", "stable-iso", _cmd_uhf_stable_iso, ("--n", "--n2")),
    ("uhf", "from-tate", _cmd_uhf_from_tate, _PADIC),
    ("tate", "coeffs", _cmd_tate_coeffs, _PADIC),
    ("dual", "pair", _cmd_dual_pair, ("--p", "--prec", "--z", "--gamma")),
    ("dual", "check", _cmd_dual_check, ("--p", "--level")),
)


def build_parser() -> argparse.ArgumentParser:
    import shutil  # as argparse does, so importing the CLI does not load it

    # argparse makes a formatter for every argument it adds, and each one with
    # no width asks the terminal; help and usage print within the same run,
    # so the width read once here is the one they would read
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    root = _Parser(
        prog="tatedual",
        description="Exact p-adic / Tate-curve / UHF-duality computations.",
        formatter_class=formatter,
    )
    groups = root.add_subparsers(dest="group", required=True)
    subs = {}
    for group, name, handler, flags in _COMMANDS:
        if group not in subs:
            subs[group] = groups.add_parser(group, formatter_class=formatter).add_subparsers(
                dest="sub", required=True, parser_class=_CommandParser)
        subs[group].add_parser(name, formatter_class=formatter, flags=flags, handler=handler)
    return root


def _echo_inputs(ns) -> dict:
    skip = {"group", "sub", "handler", "json"}
    return {
        k: v for k, v in sorted(vars(ns).items()) if k not in skip and v is not None
    }


def _usage_error(exc: _UsageError, argv: list[str]) -> int:
    """Report a usage error: one JSON error document when the argv asks for
    JSON (argparse takes any prefix of --json down to --j), else argparse's
    own usage text on stderr."""
    if any(len(arg) > 2 and "--json".startswith(arg) for arg in argv):
        command = exc.parser.prog.partition(" ")[2]  # the subcommand path reached
        print(CommandResult(command, {}, None, "error", (str(exc),)).to_json())
        return EXIT_INPUT
    try:
        argparse.ArgumentParser.error(exc.parser, str(exc))
    except SystemExit as done:
        return done.code


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        return _usage_error(exc, argv)
    except SystemExit as exc:  # --help has printed its text
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return code
    command, inputs = f"{ns.group} {ns.sub}", _echo_inputs(ns)
    try:
        check_literals(v for v in vars(ns).values() if isinstance(v, str))
        outcome, code = CommandResult(command, inputs, ns.handler(ns)), EXIT_OK
    except DomainError as exc:
        outcome = CommandResult(command, inputs, None, "error", (str(exc),))
        code = EXIT_INPUT if isinstance(exc, InputError) else EXIT_DOMAIN
    if ns.json:
        # one document per invocation, always on stdout
        print(outcome.to_json())
    else:
        stream = sys.stdout if code == EXIT_OK else sys.stderr
        print(outcome.to_text(), file=stream)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
