"""Seeded operation lists for the three workloads.

Every workload is a list of rounds.  A round is a stratified sample: each
operation kind appears a fixed number of times, one draw from each size
stratum, and the costly strata are drawn in balanced cycles across rounds
(see Cycles), so every seed gives the same mix of kinds and sizes while
the concrete inputs differ.  Runs stop at a round boundary, so each run
executes whole rounds and the mix does not depend on where the clock ran
out.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

FORMATS = ("text", "json")


@dataclass
class Op:
    kind: str
    args: dict
    fmt: str = "text"
    argv: list = field(default_factory=list)
    fixture: object = None  # library inputs built during set-up


def round_rng(seed: int, workload: str, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


class Cycles:
    """Balanced draws from size strata.

    Each stratum's values are put in a seeded order once per run, and the
    i-th draw from a stratum takes entry i modulo its length.  Over a run
    every value of a stratum is used about equally often, so the total
    cost of a run barely depends on the seed, while the order and the
    pairing of values still do.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.orders: dict = {}

    def pick(self, stratum: tuple[int, int], i: int, key: str = "") -> int:
        order = self.orders.get((key, stratum))
        if order is None:
            order = list(range(stratum[0], stratum[1] + 1))
            self.rng.shuffle(order)
            self.orders[(key, stratum)] = order
        return order[i % len(order)]


# --------------------------------------------------------------------------
# Steenrod inputs
# --------------------------------------------------------------------------

def random_monomial(rng: random.Random, degree: int, top: int = 16) -> Counter:
    """Exponents of a monomial of the given degree in at most three distinct
    generators from w2..w_top.  Few distinct factors keep the Cartan
    expansion of Sq^k (k <= 31) within seconds at degree 64."""
    while True:
        gens = rng.sample(range(2, top + 1), rng.randint(1, 3))
        parts: Counter = Counter()
        left = degree
        while left:
            fits = [g for g in gens if g <= left and left - g != 1]  # w1 = 0
            if not fits:
                break
            g = rng.choice(fits)
            parts[g] += 1
            left -= g
        if not left:
            return parts


def render_monomial(parts: Counter) -> str:
    return "*".join(f"w{i}" if e == 1 else f"w{i}^{e}" for i, e in sorted(parts.items()))


def random_poly(rng: random.Random, degree: int, terms: int) -> str:
    """A homogeneous polynomial with up to `terms` distinct monomials (low
    degrees have fewer monomials than that)."""
    monos: list[str] = []
    for _ in range(20 * terms):
        m = render_monomial(random_monomial(rng, degree))
        if m not in monos:
            monos.append(m)
            if len(monos) == terms:
                break
    return "+".join(monos)


def sq_op(rng: random.Random, k: int, degree: int, oracle: bool) -> Op:
    # high-degree inputs are single monomials, so that one Sq^k with k up
    # to 31 stays within about a second
    poly = random_poly(rng, degree, 1 if degree > 44 else rng.randint(1, 3))
    fmt = rng.choice(FORMATS)
    return Op("sq", {"k": k, "poly": poly, "degree": degree, "oracle": oracle}, fmt,
              ["steenrod", "sq", "--k", str(k), "--poly", poly, "--format", fmt])


def degree_op(rng: random.Random, kind: str, d: int) -> Op:
    fmt = rng.choice(FORMATS)
    return Op(kind, {"max_degree": d}, fmt,
              ["steenrod", kind, "--max-degree", str(d), "--format", fmt])


# --------------------------------------------------------------------------
# steenrod-cli: the Steenrod engine built (verify-bspinh, wu) and applied (sq)
# --------------------------------------------------------------------------

# The third verify-bspinh stratum and the top wu stratum cost about the
# same (0.5 to 0.9 s) and together hold a tenth of the operations, so the
# p90 falls inside one homogeneous group rather than on a cost cliff.
VERIFY_STRATA = ((8, 16), (17, 22), (24, 26), (28, 30))
WU_STRATA = ((4, 12), (13, 20), (21, 27), (30, 31))
SQ_K_STRATA = ((1, 4), (5, 10), (11, 20), (21, 31))
SQ_DEGREE_STRATA = ((8, 24), (25, 44), (45, 64))


def steenrod_rounds(seed: int, count: int, oracle_rounds: int) -> list[list[Op]]:
    cyc = Cycles(random.Random(f"steenrod-cli:{seed}"))
    rounds = []
    for r in range(count):
        rng = round_rng(seed, "steenrod-cli", r)
        ops = [degree_op(rng, "verify-bspinh", cyc.pick(s, r)) for s in VERIFY_STRATA]
        ops += [degree_op(rng, "wu", cyc.pick(s, r, "wu")) for s in WU_STRATA]
        for i, ks in enumerate(SQ_K_STRATA):
            for j, ds in enumerate(SQ_DEGREE_STRATA):
                k = cyc.pick(ks, 3 * r + j, "k")
                d = cyc.pick(ds, 4 * r + i, "degree")
                ops.append(sq_op(rng, k, d, r < oracle_rounds))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# --------------------------------------------------------------------------
# cli-mix: every subcommand, small arguments, text and json
# --------------------------------------------------------------------------

def _split_order(rng: random.Random, order: int) -> list[int]:
    """Cyclic orders whose product is order: Z_order or Z_d + Z_(order/d)."""
    divisors = [d for d in range(2, order) if order % d == 0 and d * d <= order]
    if divisors and rng.random() < 0.5:
        d = rng.choice(divisors)
        return [d, order // d]
    return [order]


def _cli_args(rng: random.Random, kind: str) -> tuple[dict, list]:
    if kind == "classify":
        if rng.random() < 0.5:
            a = {"n": rng.randint(0, 40), "variant": rng.choice(("Cl", "CCl", "Clh", "CClh"))}
            return a, ["--n", str(a["n"]), "--variant", a["variant"]]
        a = {"r": rng.randint(0, 12), "s": rng.randint(0, 12), "quaternionic": rng.random() < 0.5}
        return a, ["--r", str(a["r"]), "--s", str(a["s"])] + (["--quaternionic"] if a["quaternionic"] else [])
    if kind == "dims":
        a = {"n": rng.randint(1, 40), "field": rng.choice("RCH")}
        return a, ["--n", str(a["n"]), "--field", a["field"]]
    if kind == "ngroup":
        field = rng.choice("RCH")
        if field != "C" and rng.random() < 0.5:
            a = {"r": rng.randint(0, 12), "s": rng.randint(0, 12), "field": field}
            return a, ["--r", str(a["r"]), "--s", str(a["s"]), "--field", field]
        a = {"n": rng.randint(0, 40), "field": field}
        h = field == "C" and rng.random() < 0.5
        return a, ["--n", str(a["n"]), "--field", field] + (["--h"] if h else [])
    if kind == "genus":
        euler = rng.randint(-20, 40)
        sig = euler + 2 * rng.randint(-10, 10)  # signature = euler characteristic mod 2
        a = {"sig": sig, "euler": euler, "orientation": rng.choice("+-")}
        return a, [f"--sig={sig}", f"--euler={euler}", "--orientation", a["orientation"]]
    if kind == "hp-table":
        a = {"max_i": rng.randint(0, 12), "max_j": rng.randint(0, 12)}
        return a, ["--max-i", str(a["max_i"]), "--max-j", str(a["max_j"]), "--method", "binomial"]
    if kind == "ktable":
        lo = rng.randint(-8, 16)
        a = {"theory": rng.choice(("KO", "KU", "KSp")), "coeff": rng.choice("ZQ"),
             "lo": lo, "hi": lo + rng.randint(0, 12)}
        return a, ["--theory", a["theory"], "--coeff", a["coeff"], f"--range={lo}..{a['hi']}"]
    if kind == "zk-index":
        n = 4 * rng.randint(1, 8)
        eps = 2 if n % 8 == 0 else 1
        eta = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        integral = eps * rng.randint(-30, 30) + eta
        a = {"n": n, "k": rng.randint(2, 12), "integral": str(integral), "eta": str(eta)}
        return a, ["--n", str(n), "--k", str(a["k"]), f"--integral={integral}", f"--eta={eta}"]
    if kind == "dual":
        a = {"orders": _split_order(rng, rng.randint(2, 60))}
        return a, ["--torsion", ",".join(map(str, a["orders"]))]
    raise ValueError(kind)


CLI_MIX_KINDS = ("classify", "dims", "ngroup", "genus", "hp-table", "ktable",
                 "zk-index", "dual")


def cli_mix_rounds(seed: int, count: int) -> list[list[Op]]:
    rounds = []
    for r in range(count):
        rng = round_rng(seed, "cli-mix", r)
        ops = []
        for fmt in FORMATS:
            for kind in CLI_MIX_KINDS:
                args, argv = _cli_args(rng, kind)
                ops.append(Op(kind, args, fmt, [kind, *argv, "--format", fmt]))
            for kind in ("wu", "verify-bspinh"):
                op = degree_op(rng, kind, rng.randint(4, 16))
                op.fmt, op.argv[-1] = fmt, fmt
                ops.append(op)
            op = sq_op(rng, rng.randint(1, 16), rng.randint(4, 16), oracle=True)
            op.fmt, op.argv[-1] = fmt, fmt
            ops.append(op)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# --------------------------------------------------------------------------
# exact-lib: exact rational arithmetic in one long-lived interpreter
# --------------------------------------------------------------------------

# Costs grow steeply with n, k and the group order (dual_group is
# quadratic in it), so the strata are narrow: together with balanced
# cycles they keep the cost of a run nearly independent of the seed.  The
# low residue and chebyshev strata sit next to the dense Cl(6) and sparse
# products at the median, and the three top strata cost about the same
# (0.9 to 1.3 s), an eighth of the operations, so p50 and p90 do not sit
# on a cost cliff.
DENSE_N = (4, 5, 6, 7, 8)
SPARSE_TERMS = {9: (16, 32), 10: (32, 56), 11: (48, 72), 12: (72, 96)}
TENSOR_STRATA = ((6, 8), (9, 10), (11, 12))
RESIDUE_STRATA = ((6, 7), (10, 12), (14, 15))
CHEBYSHEV_STRATA = ((8, 9), (15, 18), (23, 24))
AHAT_STRATA = ((16, 40), (41, 64))
AHAT_EXPONENTS = (-3, -2, -1, 2, 3, 4, 5, 6)
DUAL_STRATA = ((100, 150), (300, 400), (800, 870))


def _coeff(rng: random.Random, integral: bool):
    num = rng.choice([x for x in range(-9, 10) if x])
    return num if integral else Fraction(num, rng.randint(2, 12)) + rng.randint(-2, 2)


def _terms(rng, blades, integral: bool) -> dict:
    out = {}
    for b in blades:
        c = _coeff(rng, integral)
        while not integral and Fraction(c).denominator == 1:
            c = _coeff(rng, integral)
        out[b] = c
    return out


def exact_rounds(seed: int, count: int) -> list[list[Op]]:
    cyc = Cycles(random.Random(f"exact-lib:{seed}"))
    return [exact_round(round_rng(seed, "exact-lib", r), cyc, r) for r in range(count)]


def exact_round(rng: random.Random, cyc: Cycles, r: int) -> list[Op]:
    ops = []
    # integral flags cycle (a, b) = (Z, Q), (Q, Z), (Z, Z), (Q, Q): half of
    # all Clifford inputs have integral coefficients
    flags = [(True, False), (False, True), (True, True), (False, False)]
    for i, n in enumerate(DENSE_N + tuple(SPARSE_TERMS)):
        ia, ib = flags[i % 4]
        if n in DENSE_N:
            blades_a = blades_b = range(1 << n)
            sig_r, kind = n, "clifford-dense"
        else:
            size = cyc.pick(SPARSE_TERMS[n], r, "sparse")
            blades_a = rng.sample(range(1 << n), size)
            blades_b = rng.sample(range(1 << n), size)
            sig_r, kind = rng.randint(0, n), "clifford-sparse"
        ops.append(Op(kind, {"n": n, "r": sig_r, "a": _terms(rng, blades_a, ia),
                             "b": _terms(rng, blades_b, ib), "integral": (ia, ib),
                             "sample_seed": rng.random()}))
    for s in TENSOR_STRATA:
        total = cyc.pick(s, r, "tensor")
        m = rng.randint(1, total - 1)
        ops.append(Op("graded-tensor", {"m": m, "n": total - m}))
    for kind, strata in (("hp-residue", RESIDUE_STRATA), ("hp-chebyshev", CHEBYSHEV_STRATA)):
        for s in strata:
            ops.append(Op(kind, {"k": cyc.pick(s, r, kind)}))
    for s in AHAT_STRATA:
        ops.append(Op("ahat-recip", {"trunc": rng.randint(*s)}))
        ops.append(Op("ahat-pow", {"trunc": rng.randint(*s), "e": rng.choice(AHAT_EXPONENTS)}))
    for s in DUAL_STRATA:
        ops.append(Op("dual-group", {"orders": _split_order(rng, cyc.pick(s, r, "dual"))}))
    rng.shuffle(ops)
    return ops


def input_shares(workload: str, ops: list[Op]) -> dict:
    """Input properties of the operations run, for citing workload shares."""
    kinds = Counter(op.kind for op in ops)
    out: dict = {"ops": len(ops), "kinds": dict(sorted(kinds.items()))}
    if workload != "exact-lib":
        out["format_json_share"] = sum(op.fmt == "json" for op in ops) / len(ops)
    degrees = {kind: Counter(op.args["max_degree"] for op in ops if op.kind == kind)
               for kind in ("wu", "verify-bspinh")}
    for kind, hist in degrees.items():
        if hist:
            out[f"{kind}_degree_hist"] = dict(sorted(hist.items()))
    sq = [op for op in ops if op.kind == "sq"]
    if sq:
        out["sq_k_hist"] = dict(sorted(Counter(op.args["k"] for op in sq).items()))
        out["sq_degree_hist"] = dict(sorted(Counter(op.args["degree"] for op in sq).items()))
        out["sq_k_above_degree_share"] = sum(op.args["k"] > op.args["degree"] for op in sq) / len(sq)
    duals = [op for op in ops if op.kind in ("dual", "dual-group")]
    if duals:
        orders = Counter()
        for op in duals:
            order = 1
            for m in op.args["orders"]:
                order *= m
            orders[order] += 1
        out["dual_order_hist"] = dict(sorted(orders.items()))
    cliff = [op for op in ops if op.kind.startswith("clifford")]
    if cliff:
        out["integral_coeff_share"] = integral_share(cliff)
    series = [op.args["trunc"] for op in ops if "trunc" in op.args]
    series += [2 * op.args["k"] for op in ops if op.kind in ("hp-residue", "hp-chebyshev")]
    if series:
        out["series_trunc_max"] = max(series)
    return out


def integral_share(ops: list[Op]) -> float:
    flags = [f for op in ops for f in op.args["integral"]]
    return sum(flags) / len(flags)
