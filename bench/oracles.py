"""Output checks for every operation kind.

Each check returns None when the output is right and a one-line reason
otherwise.  Where an independent oracle exists the check recomputes the
answer here, from the mathematics rather than from the package: binomial
coefficients, Poincare series of free algebras, an explicit blade
product, a total-square Steenrod action on bit-packed monomials, Bott
periodicity tables and sympy series.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, prod

# --------------------------------------------------------------------------
# mod-2 polynomials in Stiefel-Whitney classes
#
# A monomial is an int with 8 bits per generator index, so w_i^e is
# e << (8 * i) and multiplying monomials adds their codes.
# --------------------------------------------------------------------------

_BITS = 8
_FACTOR = re.compile(r"w(\d+)(?:\^(\d+))?$")


def mono_code(factors) -> int:
    return sum(e << (_BITS * i) for i, e in factors)


def mono_degree(code: int) -> int:
    degree, i = 0, 0
    while code:
        degree += i * (code & 0xFF)
        code >>= _BITS
        i += 1
    return degree


def parse_poly(text: str) -> frozenset[int]:
    """Monomial codes of a printed polynomial such as w2^2*w5+w9, 1 or 0."""
    text = text.strip()
    if text == "0":
        return frozenset()
    out: set[int] = set()
    for term in text.split("+"):
        if term == "1":
            code = 0
        else:
            factors = []
            for factor in term.split("*"):
                m = _FACTOR.match(factor)
                if not m:
                    raise ValueError(f"unparsable factor {factor!r}")
                factors.append((int(m.group(1)), int(m.group(2) or 1)))
            code = mono_code(factors)
        if code in out:
            raise ValueError(f"repeated monomial in {text[:60]!r}")
        out.add(code)
    return frozenset(out)


def _binom2(a: int, t: int) -> int:
    """binom(a, t) mod 2 for any integer a, by Lucas' theorem."""
    if t < 0:
        return 0
    if a < 0:
        a = -a + t - 1  # binom(-n, t) = (-1)^t binom(n+t-1, t)
    return 1 if t <= a and a & t == t else 0


def _w(i: int) -> int | None:
    """Code of w_i, None for w_1 = 0 (oriented); w_0 = 1 has code 0."""
    if i == 1:
        return None
    return 0 if i == 0 else 1 << (_BITS * i)


def _sq_generator(i: int, j: int) -> set[int]:
    """Wu's formula Sq^i(w_j) = sum_t binom(i-j, t) w_{i-t} w_{j+t}."""
    out: set[int] = set()
    if i > j:
        return out
    for t in range(i + 1):
        if _binom2(i - j, t):
            left, right = _w(i - t), _w(j + t)
            if left is not None and right is not None:
                out ^= {left + right}
    return out


def sq_poly(k: int, poly: frozenset[int]) -> frozenset[int]:
    """Sq^k of a polynomial: the degree-k part of the total square, which
    is a ring map, expanded one generator factor at a time."""
    acc: set[int] = set()
    for code in poly:
        levels: dict[int, set[int]] = {0: {0}}
        i = 0
        while code:
            for _ in range(code & 0xFF):
                nxt: dict[int, set[int]] = {}
                for extra, monos in levels.items():
                    for s in range(min(i, k - extra) + 1):
                        terms = _sq_generator(s, i)
                        if not terms:
                            continue
                        bucket = nxt.setdefault(extra + s, set())
                        for m in monos:
                            for t in terms:
                                bucket ^= {m + t}
                levels = nxt
            code >>= _BITS
            i += 1
        acc ^= levels.get(k, set())
    return frozenset(acc)


def square_poly(poly: frozenset[int]) -> frozenset[int]:
    """p^2 over F2: cross terms cancel, each monomial doubles."""
    return frozenset(2 * m for m in poly)


def free_series(degrees, top: int) -> list[int]:
    """Poincare series of a free commutative algebra, one generator per
    listed degree, as coefficients of t^0..t^top."""
    series = [1] + [0] * top
    for d in degrees:
        for n in range(d, top + 1):
            series[n] += series[n - d]
    return series


def spinh_free_series(top: int) -> list[int]:
    """Z2[w_i : i >= 2, i not 2^r + 1 for r >= 2]."""
    excluded = {2 ** r + 1 for r in range(2, top.bit_length() + 1)}
    return free_series([i for i in range(2, top + 1) if i not in excluded], top)


def spinh_sq1_series(top: int) -> list[int]:
    """Z2[w2^2, w_{2k}^2 (k >= 3 not a power of two), v_{2^{r+1}} (r >= 1)]."""
    degrees = [4] + [4 * k for k in range(3, top // 4 + 1) if k & (k - 1)]
    degrees += [2 ** r for r in range(2, top.bit_length()) if 2 ** r <= top]
    return free_series(degrees, top)


# --------------------------------------------------------------------------
# steenrod subcommands
# --------------------------------------------------------------------------

def check_sq(op, out: str) -> str | None:
    k, poly = op.args["k"], parse_poly(op.args["poly"])
    degree = op.args["degree"]
    if op.fmt == "json":
        payload = json.loads(out)
        if payload["k"] != k or parse_poly(payload["input"]) != poly:
            return "json echoes the wrong input"
        result = parse_poly(payload["result"])
    else:
        result = parse_poly(out)
    if any(mono_degree(m) != degree + k for m in result):
        return f"result not homogeneous of degree {degree + k}"
    if k > degree and result:
        return "instability violated: Sq^k(x) != 0 for k > deg x"
    if k == degree and result != square_poly(poly):
        return "top square is not the cup square"
    if op.args["oracle"] and result != sq_poly(k, poly):
        return "differs from the total-square oracle"
    return None


# Sq(v) = w is checked on the Wu classes up to this degree.
WU_ORACLE_DEGREE = 16


def check_wu(op, out: str) -> str | None:
    top = op.args["max_degree"]
    if op.fmt == "json":
        payload = json.loads(out)
        if payload["max_degree"] != top:
            return "json echoes the wrong degree"
        texts = payload["classes"]
    else:
        texts = []
        for n, line in enumerate(out.splitlines()):
            head, _, body = line.partition(" = ")
            if head != f"v{n}":
                return f"line {n} is not v{n}"
            texts.append(body)
    if len(texts) != top + 1:
        return f"expected {top + 1} classes, got {len(texts)}"
    classes = [parse_poly(t) for t in texts]
    for n, v in enumerate(classes):
        if any(mono_degree(m) != n for m in v):
            return f"v{n} is not homogeneous of degree {n}"
        if n % 2 and v:
            return f"odd Wu class v{n} is nonzero for an oriented bundle"
    for n in range(min(top, WU_ORACLE_DEGREE) + 1):
        total: set[int] = set()
        for i in range(n + 1):
            total ^= sq_poly(i, classes[n - i])
        w = _w(n)
        if total != (set() if w is None else {w}):
            return f"Sq(v) != w in degree {n}"
    return None


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def check_verify(op, out: str) -> str | None:
    top = op.args["max_degree"]
    if op.fmt == "json":
        p = json.loads(out)
    else:
        fields = dict(re.split(r"\s{2,}", line, maxsplit=1) for line in out.splitlines())
        p = {"max_degree": top,
             "quotient_series": _ints(fields["quotient series"]),
             "free_subalgebra_series": _ints(fields["free subalgebra"]),
             "series_match": fields["series match"] == "True",
             "sq1_homology": _ints(fields["sq1 homology"]),
             "sq1_oracle": _ints(fields["sq1 oracle"]),
             "sq1_match": fields["sq1 match"] == "True",
             "w9_decomposable": fields["w9 decomposable"] == "True"}
    free, sq1 = spinh_free_series(top), spinh_sq1_series(top)
    if p["max_degree"] != top:
        return "wrong max_degree"
    if p["quotient_series"] != free or p["free_subalgebra_series"] != free:
        return "quotient series differs from the free-subalgebra series"
    if p["sq1_homology"] != sq1 or p["sq1_oracle"] != sq1:
        return "Sq1 homology differs from the polynomial oracle"
    if not (p["series_match"] and p["sq1_match"]):
        return "a match flag is false"
    if p["w9_decomposable"] != (top >= 9):
        return "w9 decomposability flag is wrong"
    return None


# --------------------------------------------------------------------------
# tables: classification, module groups, K-theory, pairings
# --------------------------------------------------------------------------

_FIELD_DIM = {"R": 1, "C": 2, "H": 4}
_VARIANT_DIM = {"Cl": 1, "CCl": 2, "Clh": 4, "CClh": 8}
# Bott periodicity: KO_n(pt) for n mod 8; KSp_n = KO_{n+4}.
KO = ("Z", "Z2", "Z2", "0", "Z", "0", "0", "0")


def bott(theory: str, n: int) -> str:
    if theory == "KU":
        return "Z" if n % 2 == 0 else "0"
    return KO[(n + (4 if theory == "KSp" else 0)) % 8]


def _algebra_dim(text: str) -> int:
    m = re.fullmatch(r"([RCH])(?:\((\d+)\))?(?:\+\1(?:\((\d+)\))?)?", text)
    if not m:
        raise ValueError(f"unparsable normal form {text!r}")
    size = int(m.group(2) or 1)
    return size * size * _FIELD_DIM[m.group(1)] * (2 if "+" in text else 1)


def check_classify(op, out: str) -> str | None:
    a = op.args
    if "n" in a:
        expected = 2 ** a["n"] * _VARIANT_DIM[a["variant"]]
    else:
        expected = 2 ** (a["r"] + a["s"]) * (4 if a["quaternionic"] else 1)
    if op.fmt == "json":
        d = json.loads(out)
        one = d["field"] if d["size"] == 1 else f"{d['field']}({d['size']})"
        out = one if d["simple"] else f"{one}+{one}"
    dim = _algebra_dim(out)
    return None if dim == expected else f"{out} has real dimension {dim}, not {expected}"


def _irreducible_dim(m: int, field: str) -> int:
    """Real dimension of an irreducible module over Cl_m (tensored with
    C or H), read off the period-8 normal forms R, C, H, H+H, H(2), C(4),
    R(8), R(8)+R(8)."""
    if field == "C":
        return 2 ** (m // 2 + 1)
    table = (1, 2, 4, 4, 8, 8, 8, 8) if field == "R" else (4, 4, 4, 4, 8, 16, 32, 32)
    return table[m % 8] * 16 ** (m // 8)


def check_dims(op, out: str) -> str | None:
    n, field = op.args["n"], op.args["field"]
    value = json.loads(out)["dimension"] if op.fmt == "json" else int(out)
    expected = 2 * _irreducible_dim(n - 1, field)
    return None if value == expected else f"dimension {value}, expected {expected}"


def check_ngroup(op, out: str) -> str | None:
    a = op.args
    n = a["r"] - a["s"] if "r" in a else a["n"]
    theory = {"R": "KO", "C": "KU", "H": "KSp"}[a["field"]]
    group = json.loads(out)["group"] if op.fmt == "json" else out
    expected = bott(theory, n)
    return None if group == expected else f"N group {group}, expected {expected}"


def check_genus(op, out: str) -> str | None:
    a = op.args
    sign = 1 if a["orientation"] == "+" else -1
    expected = str(Fraction(a["sig"] + sign * a["euler"], 2))
    value = json.loads(out)["genus"] if op.fmt == "json" else out
    return None if value == expected else f"genus {value}, expected {expected}"


def pairing(i: int, j: int) -> int:
    return comb(i + j + 1, i - j) if i >= j else 0


def check_pairing_matrix(matrix, max_i: int, max_j: int) -> str | None:
    expected = [[pairing(i, j) for j in range(max_j + 1)] for i in range(max_i + 1)]
    return None if matrix == expected else "pairing matrix differs from binomial(i+j+1, i-j)"


def check_hp_table(op, out: str) -> str | None:
    a = op.args
    if op.fmt == "json":
        matrix = json.loads(out)["matrix"]
    else:
        matrix = [[int(x) for x in line.split()] for line in out.splitlines()]
    return check_pairing_matrix(matrix, a["max_i"], a["max_j"])


def check_ktable(op, out: str) -> str | None:
    a = op.args
    if op.fmt == "json":
        got = [(e["n"], e["group"]) for e in json.loads(out)["entries"]]
    else:
        got = [(int(n), g) for n, g in (line.split(": ") for line in out.splitlines())]
    expected = []
    for n in range(a["lo"], a["hi"] + 1):
        group = bott(a["theory"], n)
        if a["coeff"] == "Q":
            group = "Q" if group == "Z" else "0"
        expected.append((n, group))
    return None if got == expected else "coefficient table differs from Bott periodicity"


def check_zk_index(op, out: str) -> str | None:
    a = op.args
    eps = 2 if a["n"] % 8 == 0 else 1
    q = (Fraction(a["integral"]) - Fraction(a["eta"])) / eps
    expected = int(q) % a["k"]
    value = json.loads(out)["residue"] if op.fmt == "json" else int(out.split()[0])
    return None if value == expected else f"residue {value}, expected {expected}"


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors of a sum of cyclic groups, from prime powers."""
    powers: dict[int, list[int]] = {}
    for m in orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    slots = max((len(v) for v in powers.values()), default=0)
    factors = [1] * slots
    for v in powers.values():
        for i, q in enumerate(sorted(v, reverse=True)):
            factors[slots - 1 - i] *= q
    return tuple(f for f in factors if f > 1)


def group_text(factors) -> str:
    return "+".join(f"Z{f}" for f in factors) or "0"


def check_dual(op, out: str) -> str | None:
    factors = invariant_factors(op.args["orders"])
    name = group_text(factors)
    if op.fmt == "json":
        d = json.loads(out)
        group, dual, verified = d["group"], d["dual"], d["verified"]
        if d["candidates"] != prod(f * f for f in factors) or d["valid"] != prod(factors):
            return "candidate or valid count is wrong"
    else:
        m = re.fullmatch(r"(\S+) -> (\S+) \[(verified|FAILED)\]", out)
        if not m:
            return "unparsable dual output"
        group, dual, verified = m.group(1), m.group(2), m.group(3) == "verified"
    if group != name or dual != name:
        return f"dual {dual} of {group}, expected {name}"
    return None if verified else "duality not verified"


CLI_CHECKS = {
    "classify": check_classify, "dims": check_dims, "ngroup": check_ngroup,
    "genus": check_genus, "hp-table": check_hp_table, "ktable": check_ktable,
    "zk-index": check_zk_index, "dual": check_dual, "sq": check_sq,
    "wu": check_wu, "verify-bspinh": check_verify,
}


# --------------------------------------------------------------------------
# library results (exact-lib)
# --------------------------------------------------------------------------

def blade_sign(a: int, b: int, r: int) -> int:
    """Sign of e_A e_B in Cl(r, s) by sorting the concatenated index list
    one transposition at a time; generators 1..r square to -1."""
    seq = [i for i in range(1, a.bit_length() + 1) if a >> (i - 1) & 1]
    seq += [i for i in range(1, b.bit_length() + 1) if b >> (i - 1) & 1]
    sign = 1
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
    for x, y in zip(seq, seq[1:]):
        if x == y and x <= r:
            sign = -sign
    return sign


def check_clifford_product(a_terms, b_terms, r: int, result, sample) -> str | None:
    """Compare sampled coefficients of a product with explicit blade
    products of the factors."""
    for z in sample:
        expected = Fraction(0)
        for x, cx in a_terms.items():
            cy = b_terms.get(x ^ z)
            if cy is not None:
                expected += blade_sign(x, x ^ z, r) * cx * cy
        if result.get(z, 0) != expected:
            return f"coefficient of blade {z:#b} is {result.get(z, 0)}, expected {expected}"
    if any(c == 0 for c in result.values()):
        return "product stores a zero coefficient"
    return None


class AHatOracle:
    """Coefficients of x / (2 sinh(x/2)) from a sympy series, computed
    once per run at the largest truncation needed."""

    def __init__(self, top: int):
        import sympy

        x = sympy.Symbol("x")
        expansion = sympy.series(x / (2 * sympy.sinh(x / 2)), x, 0, top + 1).removeO()
        poly = sympy.Poly(expansion, x)
        self.coeffs = [Fraction(int(c.p), int(c.q))
                       for c in (poly.coeff_monomial(x ** k) for k in range(top + 1))]

    def power(self, e: int, trunc: int) -> list[Fraction]:
        base = self.coeffs[:trunc + 1]
        if e < 0:
            base, e = _reciprocal(base), -e
        out = [Fraction(1)] + [Fraction(0)] * trunc
        for _ in range(e):
            out = [sum(out[i] * base[n - i] for i in range(n + 1)) for n in range(trunc + 1)]
        return out


def _reciprocal(c: list[Fraction]) -> list[Fraction]:
    inv = [1 / c[0]]
    for n in range(1, len(c)):
        inv.append(-sum(c[i] * inv[n - i] for i in range(1, n + 1)) / c[0])
    return inv
