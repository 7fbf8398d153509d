"""Independent plain-integer oracle for every CLI command the workloads run.

Nothing here imports tatedual: expected results are derived from the argv
alone with integer and ``fractions.Fraction`` arithmetic, using closed forms
where the package iterates (the Lambert q-expansion for the Tate
coefficients, one running gcd for every hull and limit).  ``check`` turns
one finished op into a failure reason, or None when it passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

CONTRACT_EXITS = (0, 2, 3)


def parse_flags(argv) -> dict[str, str]:
    flags = {}
    i = 2
    while i < len(argv):
        key = argv[i][2:]
        if key == "json":
            i += 1
            continue
        flags[key] = argv[i + 1]
        i += 2
    return flags


def residue(text: str, p: int, n: int) -> int:
    """The canonical value in [0, p^n) of an integer or a digit list."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if "," in body:
        digits = [int(s) for s in body.split(",")]
        if len(digits) != n or not all(0 <= d < p for d in digits):
            raise ValueError(f"bad digit list {text!r}")
        return sum(d * p ** i for i, d in enumerate(digits))
    return int(body) % p ** n


def digits(value: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        value, d = divmod(value, p)
        out.append(d)
    return out


def valuation(value: int, p: int) -> int:
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


def prime_to_part(n: int, p: int) -> int:
    return n // p ** valuation(n, p) if n else 0


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _mod_text(value: int, p: int, n: int) -> str:
    return f"{value} mod {p}^{n}"


def _operand(flags, flag="q"):
    p, n = int(flags["p"]), int(flags["prec"])
    return p, n, residue(flags[flag], p, n)


def canonical_entries(q: int, p: int, n: int) -> list[int]:
    return [q % p ** k for k in range(1, n + 1)]


def hull_numerators(q: int, p: int, n: int) -> list[int]:
    """G_k = gcd_{j<=k} a_j p^(k-j): the hull of the level-k truncation is
    G_k / p^k.  One running gcd gives every truncation."""
    out, g = [], 0
    for a in canonical_entries(q, p, n):
        g = gcd(g * p, a)
        out.append(g)
    return out


# --- per-command expected results --------------------------------------------


def _tate_coeffs(f):
    p, n, q = _operand(f)
    v = valuation(q, p)
    top = -(-n // v) - 1  # q^m vanishes mod p^n once m*v >= n
    s3 = [0] * (top + 1)
    s5 = [0] * (top + 1)
    for d in range(1, top + 1):
        d3, d5 = d ** 3, d ** 5
        for m in range(d, top + 1, d):
            s3[m] += d3
            s5[m] += d5
    mod = p ** n
    # Lambert series: sum_n c(n) q^n/(1-q^n) = sum_m (sum_{d|m} c(d)) q^m
    acc4 = acc6 = 0
    for m in range(top, 0, -1):
        acc4 = (acc4 + s3[m]) * q % mod
        acc6 = (acc6 + (5 * s3[m] + 7 * s5[m]) // 12) * q % mod
    a4, a6 = -5 * acc4 % mod, -acc6 % mod
    return {
        "a4": _mod_text(a4, p, n), "a6": _mod_text(a6, p, n),
        "a4_digits": digits(a4, p, n), "a6_digits": digits(a6, p, n),
        "terms_used": top, "q_valuation": v,
    }


def _padic_arith(f):
    p, n, x = _operand(f, "x")
    mod = p ** n
    if f["op"] == "mul":
        out = x * residue(f["y"], p, n) % mod
    elif f["op"] == "invert":
        out = pow(x, -1, mod)
    else:
        raise ValueError(f"no oracle for op {f['op']!r}")
    return {"op": f["op"], "result": _mod_text(out, p, n), "digits": digits(out, p, n)}


def _padic_canon(f):
    p, n, q = _operand(f)
    return {"p": p, "precision": n, "q": _mod_text(q, p, n),
            "entries": canonical_entries(q, p, n)}


def _gamma_gens(f):
    p, n, q = _operand(f)
    return {"generators": [str(Fraction(a, p ** k))
                           for k, a in enumerate(canonical_entries(q, p, n), 1)]}


def _gamma_group(f):
    p, n, q = _operand(f)
    return {"generator": str(Fraction(hull_numerators(q, p, n)[-1], p ** n))}


def _gamma_contains_one(f):
    p, n, q = _operand(f)
    content = prime_to_part(gcd(*canonical_entries(q, p, n)), p)
    return {"contains_one": content == 1, "content": content}


def _limit(f):
    p, n, q = _operand(f)
    contents = [Fraction(g, p ** k).numerator if g else None
                for k, g in enumerate(hull_numerators(q, p, n), 1)]
    scale = contents[-1]
    stabilized = n >= 3 and all(c == scale for c in contents[-3:])
    return p, scale, stabilized


def _gamma_limit(f):
    p, scale, stabilized = _limit(f)
    return {"sn": f"{p}^inf", "scale": scale, "stabilized": stabilized}


def _uhf_from_tate(f):
    p, scale, _ = _limit(f)
    doc = {"descriptor": f"sizes=;tail={p}", "k0": f"{p}^inf", "scale": scale}
    if p == 2:
        doc["label"] = "CAR"
    return doc


def _gamma_prufer_check(f):
    p, n, q = _operand(f)
    v = valuation(q, p)
    c = digits(q, p, n)
    levels = [k - valuation(a, p) if a else 0
              for k, a in enumerate(canonical_entries(q, p, n), 1)]
    tail = levels[v:]
    unbounded = all(b > a for a, b in zip(tail, tail[1:])) and (
        not tail or tail[-1] == n - v)
    return {
        "p_gamma1_zero": True,
        # p*gamma_{k+1} - gamma_k = (a_{k+1} - a_k)/p^k = c_k, always an integer
        "relations": [{"n": k, "holds": True, "discrepancy": c[k]} for k in range(1, n)],
        "levels": levels,
        "unbounded_order": unbounded,
        "all_hold": True,
    }


def _gamma_density(f):
    p, n, q = _operand(f)
    g = Fraction(hull_numerators(q, p, n)[-1], p ** n)
    target, epsilon = Fraction(f["target"]), Fraction(f["epsilon"])
    if not 0 < g <= epsilon:
        raise ValueError("generated density input admits no witness")
    steps = target / g
    k, rem = divmod(steps.numerator, steps.denominator)
    if 2 * rem > steps.denominator:  # ties go to the smaller multiple
        k += 1
    witness = k * g
    return {"witness": str(witness), "distance": str(abs(witness - target))}


def format_supernatural(exps: dict) -> str:
    """`2^inf*3^2*5` from prime -> exponent, None standing for infinity."""
    parts = []
    for p in sorted(exps):
        e = exps[p]
        parts.append(f"{p}^inf" if e is None else (str(p) if e == 1 else f"{p}^{e}"))
    return "*".join(parts) or "1"


def _parse_supernatural(text: str) -> dict:
    """prime -> exponent, None standing for infinity."""
    if text == "1":
        return {}
    out = {}
    for part in text.split("*"):
        base, _, e = part.partition("^")
        out[int(base)] = None if e == "inf" else int(e or 1)
    return out


def _uhf_k0(f):
    desc = f["desc"]
    chunks = dict(c.split("=", 1) for c in desc.split(";"))
    exps: dict = {}
    for k in (int(s) for s in chunks["sizes"].split(",") if s):
        for p, e in factor(k).items():
            exps[p] = exps.get(p, 0) + e
    for k in (int(s) for s in chunks.get("tail", "").split(",") if s):
        for p in factor(k):
            exps[p] = None
    return {"descriptor": desc, "k0": format_supernatural(exps)}


def _uhf_stable_iso(f):
    n1, n2 = _parse_supernatural(f["n"]), _parse_supernatural(f["n2"])
    inf1 = {p for p, e in n1.items() if e is None}
    inf2 = {p for p, e in n2.items() if e is None}
    if inf1 != inf2:
        return {"equal": False}
    r = s = 1
    for p in set(n1) | set(n2):
        if p in inf1:
            continue
        d = n1.get(p, 0) - n2.get(p, 0)
        if d > 0:
            r *= p ** d
        else:
            s *= p ** -d
    return {"equal": True, "witness": {"r": r, "s": s}}


def _dual_check(f):
    p, level = int(f["p"]), int(f["level"])
    return {"p": p, "level": level, "modulus": p ** level,
            "left_nondegenerate": True, "right_nondegenerate": True,
            "bilinear": True, "perfect": True, "counterexamples": []}


def _dual_pair(f):
    p, n, z = _operand(f, "z")
    num, _, den = f["gamma"].partition("/")
    base, _, exp = den.partition("^")
    gamma = Fraction(int(num), int(base) ** int(exp)) % 1
    level = valuation(gamma.denominator, p)
    gamma_text = f"{gamma.numerator}/{p}^{level}" if gamma else "0"
    return {"z": _mod_text(z, p, n), "gamma": gamma_text, "value": str(z * gamma % 1)}


EXPECTED = {
    "tate coeffs": _tate_coeffs,
    "padic arith": _padic_arith,
    "padic canon": _padic_canon,
    "gamma gens": _gamma_gens,
    "gamma group": _gamma_group,
    "gamma contains-one": _gamma_contains_one,
    "gamma limit": _gamma_limit,
    "gamma prufer-check": _gamma_prufer_check,
    "gamma density": _gamma_density,
    "uhf from-tate": _uhf_from_tate,
    "uhf k0": _uhf_k0,
    "uhf stable-iso": _uhf_stable_iso,
    "dual check": _dual_check,
    "dual pair": _dual_pair,
}


def expected_result(argv) -> dict:
    return EXPECTED[f"{argv[0]} {argv[1]}"](parse_flags(argv))


def check(op, code, out: str, err: str) -> str | None:
    """Why the finished op fails the contract or the oracle, or None.

    `code` is the exit code, or the exception `cli.run` raised."""
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {str(code)[:120]}"
    if code not in CONTRACT_EXITS:
        return f"exit code {code} outside {CONTRACT_EXITS}"
    if op.expect_exit is not None and code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    if err or not out.endswith("\n") or out.count("\n") != 1:
        return "output is not exactly one JSON document on stdout"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not valid JSON"
    if not isinstance(doc, dict) or doc.get("command") != op.command:
        return "JSON envelope names the wrong command"
    if code != 0:
        if doc.get("status") != "error" or doc.get("result") is not None \
                or not doc.get("diagnostics"):
            return "error envelope malformed"
        return None
    if doc.get("status") != "ok" or doc.get("diagnostics"):
        return "success envelope malformed"
    if op.expect_exit is None:
        return None
    try:
        expected = expected_result(op.argv)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"oracle cannot evaluate this argv: {exc!r}"
    if doc.get("result") != expected:
        return "result disagrees with the oracle"
    return None
