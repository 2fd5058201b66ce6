"""The three benchmark workloads.

Each workload is a fixed cycle of request kinds ("a round"); the seed only
changes the parameters drawn for each request, never the mix of kinds or
precision levels.  A kind's label names whatever sets its cost (the number of
moduli, the output format, the band of the twist's denominator), so the
requests of one kind cost about the same and the median latency of a kind
hardly depends on the seed.  A request is one library call or one in-process ``czeta``
invocation; a check is one identity at one parameter tuple (one
``VerifyResult`` or one CLI report row) or one value compared with its
oracle.  ``Request.check`` runs after the timed phase and compares results
with the mpmath-only references in ``oracles``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

import mpmath as mp

import oracles

from cotzeta import (DEFAULT_PRECISION, PrecisionConfig, QuadratureConfig, RationalArg,
                     estermann, recip, specfn)

OK, FAIL, WRONG = "ok", "fail", "wrong"


@dataclass
class Check:
    """Outcome of one check: ``status`` is OK, FAIL (a FAIL verdict) or WRONG
    (disagrees with its oracle by more than the claimed abs_err).  Numeric
    comparisons also keep |value - oracle| and the requested target."""

    label: str
    status: str = OK
    error: float | None = None
    target: float | None = None
    detail: str = ""


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    params: str = ""


def _slack(oracle):
    # Oracles carry DPS digits; allow for their own rounding only.
    return mp.mpf(10) ** (-oracles.DPS + 15) * max(1, abs(oracle))


def compare(label: str, value, oracle, target: float) -> Check:
    """Compare a ComplexVal with an oracle value against its claimed abs_err."""
    with mp.workdps(oracles.DPS):
        diff = abs(mp.mpc(value.val) - oracle)
        if diff > value.abs_err + _slack(oracle):
            return Check(label, WRONG, float(diff), target,
                         f"|value - oracle| = {mp.nstr(diff, 3)} > claimed {mp.nstr(value.abs_err, 3)}")
        return Check(label, OK, float(diff), target)


def verdict(label: str, result, comparisons) -> Check:
    """Fold a VerifyResult's own verdict and its oracle comparisons into one
    check (one identity at one parameter tuple)."""
    worst = max(comparisons, key=lambda c: c.error / c.target)
    out = Check(label, OK, worst.error, worst.target)
    for c in comparisons:
        if c.status == WRONG:
            out.status, out.detail = WRONG, f"{c.label}: {c.detail}"
    if out.status == OK and not result.passes():
        out.status = FAIL
        out.detail = f"residual {result.residual_mag():.3e} > budget {result.budget:.3e}"
    return out


def zero_identity(result, target: float) -> Check:
    """The theorem makes the residual exactly zero: its tracked abs_err must cover it."""
    return compare("residual", result.residual, mp.mpc(0), target)


def _coprime(limit: int):
    """Coprime pairs h < k <= limit."""
    return [(h, k) for k in range(2, limit + 1) for h in range(1, k) if gcd(h, k) == 1]


# ---------------------------------------------------------------------------
# line: integral reciprocity and the multi-factor laws
# ---------------------------------------------------------------------------

LINE_QUAD = QuadratureConfig(target_abs_err=1e-10)
LINE_CFG = PrecisionConfig(30, 1e-12)
_MODULI = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7), (3, 7), (5, 7),
           (2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7)]


def _multi(rng, count: int):
    """``count`` pairwise coprime moduli and derivative orders m0 <= 1,
    m_j <= 2 with at most two derivatives in all."""
    ks = rng.choice([ks for ks in _MODULI if len(ks) == count])
    ms = [rng.randint(0, 1)] + [0] * len(ks)
    for _ in range(rng.randint(0, 2 - ms[0])):
        ms[1 + rng.randrange(len(ks))] += 1
    return ks, tuple(ms)


def _parity_n(rng, ks, ms):
    """n in 2..5 with m0 + n + d + sum(m_j) odd."""
    base = ms[0] + len(ks) + sum(ms[1:])
    return rng.choice([n for n in range(2, 6) if (base + n) % 2 == 1])


class Line:
    name = "line"
    t = LINE_QUAD.target_abs_err

    def round(self, rng, r: int) -> list[Request]:
        reqs = []
        t = self.t
        for cplx in (False, True):
            a = (complex(rng.uniform(1.2, 3.5), rng.uniform(-1.5, 1.5)) if cplx
                 else rng.uniform(1.2, 3.8))
            h, k = rng.choice(_coprime(7))

            def check12(res, a=a, h=h, k=k):
                ref = oracles.thm12_lhs(a, h, k)
                return [verdict("thm12", res, [compare("lhs", res.lhs, ref, t),
                                               compare("rhs", res.rhs, ref, t)])]

            reqs.append(Request(
                f"verify_thm12[{'complex' if cplx else 'real'} a]",
                lambda a=a, h=h, k=k: recip.verify_thm12(a, h, k, LINE_QUAD, LINE_CFG),
                check12, f"a={a} h={h} k={k}"))

        n = rng.choice([3, 5, 7])
        h, k = rng.choice(_coprime(7))
        reqs.append(Request(
            "verify_cor23",
            lambda n=n, h=h, k=k: recip.verify_cor23(n, h, k, LINE_QUAD, LINE_CFG),
            lambda res, n=n, h=h, k=k: [verdict("cor23", res, [
                compare("lhs", res.lhs, oracles.cor23_closed_form(n, h, k), t)])],
            f"n={n} h={h} k={k}"))

        # Three moduli cost more than two: thm31 and cor33 take turns, so
        # every round has one of each.
        a = rng.uniform(2.1, 3.9)
        ks, ms = _multi(rng, 2 + r % 2)
        reqs.append(Request(
            f"verify_thm31[{len(ks)} moduli]",
            lambda a=a, ks=ks, ms=ms: recip.verify_thm31(a, ks, ms, LINE_QUAD, LINE_CFG),
            lambda res: [verdict("thm31", res, [zero_identity(res, t)])],
            f"a={a} ks={ks} ms={ms}"))

        ks, ms = _multi(rng, rng.choice((2, 3)))
        n = _parity_n(rng, ks, ms)
        reqs.append(Request(
            f"verify_thm32[{len(ks)} moduli]",
            lambda n=n, ks=ks, ms=ms: recip.verify_thm32(n, ks, ms, LINE_CFG),
            lambda res: [verdict("thm32", res, [zero_identity(res, LINE_CFG.target_abs_err)])],
            f"n={n} ks={ks} ms={ms}"))

        ks, ms = _multi(rng, 3 - r % 2)
        n = _parity_n(rng, ks, ms)

        def check33(res, n=n, ks=ks, ms=ms):
            ref = oracles.cor33_rhs(n, ks, ms)
            return [verdict("cor33", res, [compare("lhs", res.lhs, ref, t)])]

        reqs.append(Request(
            f"verify_cor33[{len(ks)} moduli]",
            lambda n=n, ks=ks, ms=ms: recip.verify_cor33(n, ks, ms, LINE_QUAD, LINE_CFG),
            check33, f"n={n} ks={ks} ms={ms}"))
        return reqs

    def warmup(self):
        recip.verify_thm12(2.5, 2, 3, LINE_QUAD, LINE_CFG)
        recip.verify_thm12(2.5 + 0.5j, 2, 3, LINE_QUAD, LINE_CFG)
        recip.verify_cor23(3, 2, 3, LINE_QUAD, LINE_CFG)
        recip.verify_thm31(2.5, (2, 3), (1, 1, 0), LINE_QUAD, LINE_CFG)
        recip.verify_thm32(3, (2, 3), (0, 0, 0), LINE_CFG)
        recip.verify_cor33(4, (2, 3), (0, 0, 1), LINE_QUAD, LINE_CFG)


# ---------------------------------------------------------------------------
# sweep: exact CLI batch
# ---------------------------------------------------------------------------

@dataclass
class CliRun:
    code: int
    output: str


def run_cli(args: list[str]) -> CliRun:
    """One in-process ``czeta`` invocation with its standard output captured."""
    from cotzeta import cli
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="czeta", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return CliRun(code, buf.getvalue())


_TEXT_ROW = re.compile(r"^\[(PASS|FAIL)\] (\S+) (\{.*\}) residual=\((\S+), (\S+)\) budget=(\S+)$")
_CLI_TARGET = 1e-12  # the CLI's default --target-err


def _parse_verify(run: CliRun, fmt: str) -> list[dict]:
    """Rows as {"params", "pass", "residual": (re, im), "lhs"} from any format."""
    rows = []
    if fmt == "json":
        for line in run.output.splitlines():
            d = json.loads(line)
            rows.append({"params": d["params"], "pass": d["pass"],
                         "residual": (d["residual"]["re"], d["residual"]["im"]),
                         "lhs": d["lhs"]})
    elif fmt == "csv":
        for d in csv.DictReader(io.StringIO(run.output)):
            rows.append({"params": json.loads(d["params"]), "pass": d["pass"] == "True",
                         "residual": (d["residual_re"], d["residual_im"])})
    else:
        for line in run.output.splitlines():
            m = _TEXT_ROW.match(line)
            if m is None:
                raise ValueError(f"unparseable report line {line!r}")
            rows.append({"params": json.loads(m.group(3)), "pass": m.group(1) == "PASS",
                         "residual": (m.group(4), m.group(5))})
    return rows


def _exact_rows(label, rows, expected_params, lhs_oracle=None) -> list[Check]:
    """Every expected tuple reported once, PASS, with an exactly zero residual;
    rendered lhs decimals (JSON) within the rendering precision of the oracle."""
    checks = []
    seen = [tuple(sorted(r["params"].items())) for r in rows]
    if sorted(seen) != sorted(tuple(sorted(p.items())) for p in expected_params):
        return [Check(label, WRONG, detail="reported parameter tuples differ from the sweep")]
    for r in rows:
        c = Check(f"{label} {r['params']}")
        if any(Fraction(x) != 0 for x in r["residual"]):
            c.status, c.detail = WRONG, f"nonzero exact residual {r['residual']}"
        elif not r["pass"]:
            c.status, c.detail = FAIL, "FAIL verdict"
        elif lhs_oracle is not None and "lhs" in r:
            ref = lhs_oracle(**r["params"])
            with mp.workdps(oracles.DPS):
                diff = abs(mp.mpf(r["lhs"]["re"]) - mp.mpf(ref.numerator) / ref.denominator)
                c.error, c.target = float(diff), _CLI_TARGET
                # 28 significant digits are printed for a 30-digit run.
                if diff > mp.mpf(10) ** -26 * max(1, abs(ref)) or mp.mpf(r["lhs"]["im"]) != 0:
                    c.status, c.detail = WRONG, f"lhs {r['lhs']['re']} != {ref}"
        checks.append(c)
    return checks


def _table_rows(run: CliRun, fmt: str) -> list[dict]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(run.output)))
    return json.loads(run.output)["rows"]


def _scaled_of(row) -> tuple:
    return (Fraction(int(row["num"]), int(row["den"])), int(row["pi_pow"]), int(row["i_pow"]))


def _odd_list(rng, lo: int, hi: int, count: int) -> list[int]:
    return sorted(rng.sample(range(lo, hi + 1, 2), count))


class Sweep:
    name = "sweep"
    FORMATS = ("text", "csv", "json")

    def round(self, rng, r: int) -> list[Request]:
        reqs = []

        # Two thm13 sweeps in different formats.  The cost of a row grows
        # with n, so every pair of orders has the same sum.
        for slot in range(2):
            fmt = self.FORMATS[(r + slot) % 3]
            ns = sorted(rng.choice(((3, 11), (5, 9))))
            hk = 11
            args = ["--format", fmt, "verify", "thm13", "--n", ",".join(map(str, ns)),
                    "--hk-max", str(hk)]
            reqs.append(Request(
                f"cli verify thm13 --format {fmt}", lambda args=args: run_cli(args),
                lambda run, fmt=fmt, ns=ns, hk=hk: _cli_code(run, 0) or _exact_rows(
                    "thm13", _parse_verify(run, fmt),
                    [{"n": n, "h": h, "k": k} for n in ns for h, k in oracles.coprime_pairs(hk)]),
                " ".join(args)))

        hk = rng.randint(21, 22)
        args = ["--format", "json", "verify", "dedekind-recip", "--hk-max", str(hk)]
        reqs.append(Request(
            "cli verify dedekind-recip", lambda args=args: run_cli(args),
            lambda run, hk=hk: _cli_code(run, 0) or _exact_rows(
                "dedekind", _parse_verify(run, "json"),
                [{"h": h, "k": k} for h, k in oracles.coprime_pairs(hk)],
                lambda h, k: oracles.dedekind_sum(h, k) + oracles.dedekind_sum(k, h)),
            " ".join(args)))

        ns = _odd_list(rng, 3, 9, 2)
        hk = rng.randint(9, 10)
        args = ["--format", "csv", "table", "thm13-rhs", "--n", ",".join(map(str, ns)),
                "--hk-max", str(hk)]

        def check_rhs(run, ns=ns, hk=hk):
            bad = _cli_code(run, 0)
            if bad:
                return bad
            rows = _table_rows(run, "csv")
            expected = {(n, h, k): oracles.thm13_rhs(n, h, k)
                        for n in ns for h, k in oracles.coprime_pairs(hk)}
            got = {(int(r["n"]), int(r["h"]), int(r["k"])): _scaled_of(r) for r in rows}
            return _table_checks("thm13-rhs", got, expected, len(rows))

        reqs.append(Request("cli table thm13-rhs", lambda args=args: run_cli(args),
                            check_rhs, " ".join(args)))

        ns = _odd_list(rng, 3, 21, 3)
        args = ["--format", "json", "table", "psi-g", "--n", ",".join(map(str, ns))]

        def check_psi_g(run, ns=ns):
            bad = _cli_code(run, 0)
            if bad:
                return bad
            rows = _table_rows(run, "json")
            expected = {(n,) + key: val for n in ns for key, val in oracles.psi_g_table(n).items()}
            got = {(int(r["n"]), r["kind"], int(r["exponent"])): _scaled_of(r) for r in rows}
            return _table_checks("psi-g", got, expected, len(rows))

        reqs.append(Request("cli table psi-g", lambda args=args: run_cli(args),
                            check_psi_g, " ".join(args)))
        return reqs

    def warmup(self):
        for fmt in self.FORMATS:
            run_cli(["--format", fmt, "verify", "thm13", "--n", "3,5", "--hk-max", "3"])
        run_cli(["--format", "json", "verify", "dedekind-recip", "--hk-max", "3"])
        run_cli(["--format", "csv", "table", "thm13-rhs", "--n", "3", "--hk-max", "3"])
        run_cli(["--format", "json", "table", "psi-g", "--n", "3"])


def _cli_code(run: CliRun, expected: int):
    if run.code != expected:
        return [Check("cli", WRONG, detail=f"exit code {run.code}, expected {expected}")]
    return None


def _table_checks(label, got: dict, expected: dict, n_rows: int) -> list[Check]:
    if n_rows != len(got) or set(got) != set(expected):
        return [Check(label, WRONG, detail="table rows differ from the requested ranges")]
    return [Check(f"{label} {key}") if got[key] == expected[key]
            else Check(f"{label} {key}", WRONG, detail=f"{got[key]} != {expected[key]}")
            for key in expected]


# ---------------------------------------------------------------------------
# twisted: Estermann and Lerch suite
# ---------------------------------------------------------------------------

# max_terms is low enough that the slow-decay series point stops at the cap.
TWIST_CFG = PrecisionConfig(30, 1e-9, 2_500)
# Estermann series points (s, a): one with fast decay, and one with slow
# decay (Re s - Re a - 1 = 2) that ends at max_terms with abs_err above the
# target.  The series cost does not depend on the twist.
SERIES_POINTS = ((6, 0), (4, 1))
# Denominators q of the twists come from three narrow bands up to 60.  Most
# twisted requests cost about q^2 Hurwitz terms, so the band is part of a
# request's kind; each round moves every slot to the next band, so every run
# has the same mix of small and large q while the seed picks the values.
Q_BANDS = ((8, 14), (28, 34), (50, 56))
# lerch_phi(2, 1, e(1/q)) refuses at the default precision for q >= 48.  The
# timed requests use twists away from 1, and this call is made once per run
# outside them, so the refusal shows in every run (see ``probe_defect``).
DEFECT_PROBE = (2, 1, RationalArg(1, 50))


def _twist(rng, band) -> RationalArg:
    """p/q with q in the band and p coprime to q in [q/4, 3q/4]."""
    q = rng.randint(*band)
    while True:
        p = rng.randint(q // 4, 3 * q // 4)
        if gcd(p, q) == 1:
            return RationalArg(p, q)


class Twisted:
    name = "twisted"
    t = TWIST_CFG.target_abs_err

    def round(self, rng, r: int) -> list[Request]:
        reqs = []
        t = self.t
        cfg = TWIST_CFG

        def banded(kind: str, slot: int):
            band = Q_BANDS[(r + slot) % len(Q_BANDS)]
            return f"{kind}[q {band[0]}-{band[1]}]", _twist(rng, band)

        kind, x = banded("verify_thm44", 0)
        k, a = rng.randint(0, 4), rng.randint(0, 4)

        def check44(res, x=x, k=k, a=a):
            ref = oracles.estermann(-k, x.p, x.q, a - k)
            return [verdict("thm44", res, [compare("primary", res.lhs, ref, t),
                                           compare("dual", res.rhs, ref, t)])]

        reqs.append(Request(kind, lambda x=x, k=k, a=a: estermann.verify_thm44(k, x, a, cfg),
                            check44, f"k={k} x={x} a={a}"))

        kind, x = banded("verify_prop43", 1)
        s, a = rng.randint(0, 4), rng.randint(0, 4)

        def check43(res, x=x, s=s, a=a):
            ref = oracles.estermann(-s, x.p, x.q, a - s)
            return [verdict("prop43", res, [compare("hurwitz", res.lhs, ref, t),
                                            compare("display", res.rhs, ref, t)])]

        reqs.append(Request(kind, lambda x=x, s=s, a=a: estermann.verify_prop43(s, x, a, cfg),
                            check43, f"s={s} x={x} a={a}"))

        kind, x = banded("verify_cor45", 2)
        a, k = rng.randint(0, 4), rng.randint(0, 4)
        reqs.append(Request(
            kind, lambda x=x, a=a, k=k: estermann.verify_cor45(a, k, x, cfg),
            lambda res, x=x, a=a, k=k: [verdict("cor45", res, [
                compare("difference", res.lhs, oracles.cor45_rhs(a, k, x.q), t)])],
            f"a={a} k={k} x={x}"))

        # The cost of lemma41 does not depend on q.
        x, k = _twist(rng, Q_BANDS[r % len(Q_BANDS)]), rng.randint(1, 6)
        reqs.append(Request(
            "verify_lemma41", lambda x=x, k=k: estermann.verify_lemma41(k, x, cfg),
            lambda res, x=x, k=k: [verdict("lemma41", res, [
                compare("apostol", res.lhs, oracles.apostol_bernoulli_at_zero(k, x.p, x.q), t)])],
            f"k={k} x={x}"))

        kind, x = banded("verify_lemma42", 1)
        n = rng.randint(1, 3)
        s = rng.choice([2.5, complex(3, 1), 2])
        z = rng.uniform(0.3, 1.5)

        def check42(res, x=x, n=n, s=s, z=z):
            ref = oracles.lemma42_lhs(s, z, n, x.p, x.q)
            return [verdict("lemma42", res, [compare("hurwitz", res.lhs, ref, t),
                                             compare("lerch", res.rhs, ref, t)])]

        reqs.append(Request(kind, lambda x=x, n=n, s=s, z=z: estermann.verify_lemma42(s, z, n, x, cfg),
                            check42, f"s={s} z={z} n={n} x={x}"))

        # A direct Lerch evaluation at the library's default precision.
        kind, x = banded("lerch_phi", 2)
        s, z = rng.choice([2.5, complex(3, 1)]), rng.uniform(0.5, 2.0)
        reqs.append(Request(
            kind, lambda x=x, s=s, z=z: specfn.lerch_phi(s, z, _twist_value(x)),
            lambda v, x=x, s=s, z=z: [compare("lerch", v, oracles.lerch(s, z, x.p, x.q),
                                              DEFAULT_PRECISION.target_abs_err)],
            f"s={s} z={z} x={x}"))

        # Small q keeps the Hurwitz double-sum oracle cheap.
        for s, a in SERIES_POINTS:
            x = _twist(rng, Q_BANDS[0])
            reqs.append(Request(
                f"estermann_series(s={s},a={a})",
                lambda x=x, s=s, a=a: estermann.estermann_series(estermann.EstermannPoint(s, x, a), cfg),
                lambda v, x=x, s=s, a=a: [compare("series", v, oracles.estermann(s, x.p, x.q, a), t)],
                f"s={s} a={a} x={x}"))
        return reqs

    def probe_defect(self) -> str:
        """Make the known refusing call once, untimed; say what it did."""
        s, z, x = DEFECT_PROBE
        call = f"lerch_phi({s}, {z}, e({x.p}/{x.q}))"
        try:
            specfn.lerch_phi(s, z, _twist_value(x))
        except Exception as exc:
            return f"{call} refused: {type(exc).__name__}: {exc}"
        return f"{call} returned"

    def warmup(self):
        cfg = TWIST_CFG
        x = RationalArg(2, 7)
        estermann.verify_thm44(2, x, 3, cfg)
        estermann.verify_prop43(2, x, 3, cfg)
        estermann.verify_cor45(2, 3, x, cfg)
        estermann.verify_lemma41(3, x, cfg)
        estermann.verify_lemma42(2.5, 0.7, 1, x, cfg)
        specfn.lerch_phi(2, 1, _twist_value(x))
        estermann.estermann_series(estermann.EstermannPoint(6, x, 0), cfg)


def _twist_value(x: RationalArg):
    """e(p/q) at the working precision lerch_phi uses for |lambda| = 1."""
    with mp.workdps(DEFAULT_PRECISION.working_digits + 20):
        return mp.expjpi(mp.mpf(2 * x.p) / x.q)


WORKLOADS = {w.name: w for w in (Line(), Sweep(), Twisted())}
