"""Byte-identity of the CLI output over a seeded corpus.

Every subcommand gets a fixed, seeded list of well-formed argvs (valid runs
and domain errors alike), each run in text mode and with --json.  The exit
code, stdout and stderr of all of them are hashed into one SHA-256 per
subcommand and compared with the pinned digests below, so a change that
moves any output byte fails here, and an intended change shows up as an
edited digest.

argparse usage errors and --help are left out, since their text differs
across Python versions; package messages, Fraction text and JSON do not.
Negative values are passed as `--flag=value`, which every argparse reads.
"""

import hashlib
import random

import pytest

from tatedual.cli import run

PRIMES = (2, 3, 5, 7, 11, 13)
NOT_PRIMES = (1, 4, 9, 15)


def _flag(flag, value):
    value = str(value)
    return [f"{flag}={value}"] if value.startswith("-") else [flag, value]


def _prime(rng):
    return rng.choice(NOT_PRIMES) if rng.random() < 0.05 else rng.choice(PRIMES)


def _operand(rng, flag, p, prec, multiple_of_p=False):
    """An integer (often a multiple of p) or a digit list, which may leave
    --prec out, disagree with it, carry a digit out of range or not parse."""
    if p in PRIMES and rng.random() < 0.25:
        digits = [rng.randrange(p) for _ in range(prec)]
        if multiple_of_p:
            digits[0] = 0
        fault = rng.random()
        if fault < 0.05:
            digits[-1] = p  # out of range
        elif fault < 0.1:
            digits.append(0)  # one digit more than --prec
        elif fault < 0.15:
            digits[-1] = "x"
        text = ",".join(map(str, digits))
        text = f"[{text}]" if rng.random() < 0.7 else text
        return _flag(flag, text), rng.random() < 0.5
    bound = max(p, 2) ** prec * 2
    value = rng.randrange(-bound, bound)
    if multiple_of_p or rng.random() < 0.3:
        value *= p
    return _flag(flag, value), True


def _padic(rng, multiple_of_p=False):
    """--p, --prec and --q; commands that need |q| < 1 get mostly multiples of p."""
    p, prec = _prime(rng), rng.randint(1, 10)
    q, with_prec = _operand(rng, "--q", p, prec, multiple_of_p)
    return ["--p", str(p)] + (["--prec", str(prec)] if with_prec else []) + q


def _fraction(rng, nonnegative=False):
    a, b = rng.randint(0 if nonnegative else -40, 40), rng.randint(1, 40)
    return f"{a}/{b}" if rng.random() < 0.8 else str(a)


def _supernatural(rng):
    parts = []
    for p in rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3)):
        e = rng.choice(["inf", "0", "1", "2", "5", None])
        parts.append(str(p) if e is None else f"{p}^{e}")
    return "*".join(parts) or "1"


def _sizes(rng):
    return ",".join(str(rng.randint(1, 60)) for _ in range(rng.randint(0, 4)))


def _padic_arith(rng):
    op = rng.choice(("add", "neg", "mul", "invert"))
    p, prec = _prime(rng), rng.randint(1, 8)
    x, _ = _operand(rng, "--x", p, prec)
    argv = ["--op", op, "--p", str(p), "--prec", str(prec)] + x
    if (op in ("add", "mul")) != (rng.random() < 0.1):  # sometimes the wrong arity
        argv += _flag("--y", rng.randrange(-50, 50))
    return argv


def _gamma_density(rng):
    return _padic(rng) + _flag("--target", _fraction(rng)) + _flag(
        "--epsilon", _fraction(rng, nonnegative=True))


def _uhf_k0(rng):
    desc = f"sizes={_sizes(rng)}"
    if rng.random() < 0.5:
        desc += f";tail={_sizes(rng)}"
    return ["--desc", desc]


def _dual_pair(rng):
    p, prec = _prime(rng), rng.randint(1, 6)
    z, _ = _operand(rng, "--z", p, prec)
    level = rng.randint(0, prec + 1)
    num = rng.randint(-30, 30)
    gamma = rng.choice([f"{num}/{p}^{level}", f"{num}/{max(p, 2) ** level}", str(num),
                        f"{num}/{rng.randint(1, 30)}"])
    return ["--p", str(p), "--prec", str(prec)] + z + _flag("--gamma", gamma)


def _dual_check(rng):
    p = _prime(rng)
    level = rng.randint(0, 4) if p < 5 else rng.randint(0, 2)
    if rng.random() < 0.05:
        level = rng.randint(14, 40)  # past the enumeration guard
    return ["--p", str(p), "--level", str(level)]


COMMANDS = {
    ("padic", "canon"): _padic,
    ("padic", "arith"): _padic_arith,
    ("gamma", "gens"): _padic,
    ("gamma", "group"): _padic,
    ("gamma", "prufer-check"): lambda rng: _padic(rng, multiple_of_p=rng.random() < 0.8),
    ("gamma", "contains-one"): _padic,
    ("gamma", "density"): _gamma_density,
    ("gamma", "limit"): lambda rng: _padic(rng, multiple_of_p=rng.random() < 0.8),
    ("uhf", "k0"): _uhf_k0,
    ("uhf", "stable-iso"): lambda rng: ["--n", _supernatural(rng), "--n2", _supernatural(rng)],
    ("uhf", "from-tate"): lambda rng: _padic(rng, multiple_of_p=rng.random() < 0.8),
    ("tate", "coeffs"): lambda rng: _padic(rng, multiple_of_p=rng.random() < 0.8),
    ("dual", "pair"): _dual_pair,
    ("dual", "check"): _dual_check,
}

ARGVS_PER_COMMAND = 24

# one digest per subcommand; an intended output change edits its line here
DIGESTS = {
    ("padic", "canon"): "da31304c6f5d34c01702afe116bb9c3f9b6bf405a126451f4a41dd743c323760",
    ("padic", "arith"): "ba690202b4e122d00343c0ba3b5d260a64b2a508b1e0a22e89922045517bc7b3",
    ("gamma", "gens"): "bbd3eab84e2585c6a4ee5e236097bc67f5e02763fbc26861e13cbae663d485c6",
    ("gamma", "group"): "dc911c01f532e0116f6d5028208b716822dedfbe7eb873c5a0bfff651c4e8cc1",
    ("gamma", "prufer-check"): "c0d1b9fa29e2b6680dc5f3fcf4a1ed5e99a5ed3f16d9130637a2683854ad1b14",
    ("gamma", "contains-one"): "21b4fac8e237b5fa83c7520cb96b8e4c54f92284bac23a957ec951e1e8cf8bbc",
    ("gamma", "density"): "55ed2490726efd8e116cdb4d6474340f0ec0d325172fd1e11f2ce5c072a17ab5",
    ("gamma", "limit"): "58e2ebc2d5d73868606f818eca5ce6ece57985cf06b120e9bb254a3be0488657",
    ("uhf", "k0"): "d8456bb7e4535b647f844cc9e2834da338e03ca3c754a49c451fdfc44f6b2406",
    ("uhf", "stable-iso"): "705074605994739eb6302f9ff5777e40ac56f8359508ae8d4721a69120fa79ff",
    ("uhf", "from-tate"): "78f51337ad60e03cb0429fbcc505f1d2b194c6469ad58dabd89e6d659f691118",
    ("tate", "coeffs"): "bda536d7b62d54605412f97e7a4659101c011fd0a7b366d337bbf20f7316f186",
    ("dual", "pair"): "3cc53cab8442c474d271c98a0b409db26a976fd851c9a39f95a68530da88458b",
    ("dual", "check"): "33044aa92661413191778ed5598db6db145f2bdd59e058372fb8f9a0a78f4959",
}


def corpus(command, count):
    """The first `count` seeded argvs for one (group, subcommand)."""
    rng = random.Random(" ".join(command))
    return [list(command) + COMMANDS[command](rng) for _ in range(count)]


def output_digest(capsys, argvs):
    """SHA-256 over every argv's exit code, stdout and stderr, in text mode
    and with --json."""
    h = hashlib.sha256()
    for argv in argvs:
        for mode in ([], ["--json"]):
            code = run(argv + mode)
            captured = capsys.readouterr()
            for part in (" ".join(argv + mode), str(code), captured.out, captured.err):
                h.update(part.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("command", list(COMMANDS), ids=" ".join)
def test_corpus_output_matches_its_pinned_digest(capsys, command):
    argvs = corpus(command, ARGVS_PER_COMMAND)
    assert output_digest(capsys, argvs) == DIGESTS[command]
