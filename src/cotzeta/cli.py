"""Batch CLI: compute any implemented quantity, run verification sweeps,
emit JSON/CSV reports.

Exit codes: 0 all good, 1 at least one verification residual exceeded its
budget, 2 usage or domain error.  Output is deterministic for a fixed
manifest: decimals render through mpmath at a fixed digit count and JSON
keys are sorted.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd

import click

from . import estermann, exact, recip, sums
from .errors import CotZetaError
from .reports import VerifyResult
from .specfn import PrecisionConfig
from .recip import QuadratureConfig
from .sums import RationalArg

EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunManifest:
    """Everything that determines one CLI run's output."""

    command: str
    params: dict
    precision: PrecisionConfig
    quad: QuadratureConfig
    output_format: str = "json"
    out: str | None = None
    force: bool = False
    budget_override: float | None = None

    def digits(self) -> int:
        return self.precision.working_digits - 2


def _complex(text: str) -> complex:
    return complex(text.replace(" ", "").replace("i", "j"))


_TEXT_KEY = "cotzeta.option_text"


class ParsedText(click.ParamType):
    """An option parsed from its text.  The text itself is kept in
    ``ctx.meta`` so that a manifest echoes what was typed, not the parse."""

    name = "text"  # the metavar shown by --help

    def __init__(self, parse, what: str):
        self.parse = parse
        self.what = what

    def convert(self, value, param, ctx):
        if not isinstance(value, str):
            return value
        try:
            parsed = self.parse(value)
        except ValueError:
            self.fail(f"cannot parse {self.what} {value!r}", param, ctx)
        if ctx is not None:
            ctx.meta.setdefault(_TEXT_KEY, {})[param.name] = value
        return parsed


COMPLEX = ParsedText(_complex, "complex number")
COMPLEX_LIST = ParsedText(lambda t: [_complex(s) for s in t.split(",")],
                          "complex number list")
INT_LIST = ParsedText(lambda t: [int(s) for s in t.split(",") if s != ""],
                      "integer list")


def _fraction_json(f: Fraction) -> dict:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _manifest_echo(manifest: RunManifest) -> dict:
    return {
        "command": manifest.command,
        "params": manifest.params,
        "precision": {
            "working_digits": manifest.precision.working_digits,
            "target_abs_err": repr(manifest.precision.target_abs_err),
            "max_terms": manifest.precision.max_terms,
        },
        "quad": {f.name: repr(getattr(manifest.quad, f.name))
                 for f in fields(manifest.quad)},
        "output_format": manifest.output_format,
    }


@contextlib.contextmanager
def _open_out(manifest: RunManifest):
    """Stdout, or a temporary file beside --out that replaces it only when the
    block completes, so a failed run leaves an existing file unchanged."""
    if manifest.out is None:
        yield sys.stdout
        return
    tmp = f"{manifest.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as stream:
            yield stream
        os.replace(tmp, manifest.out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _emit(manifest: RunManifest, payload: dict):
    doc = {"manifest": _manifest_echo(manifest), **payload}
    with _open_out(manifest) as stream:
        if manifest.output_format == "text":
            for key, value in payload.items():
                stream.write(f"{key}: {json.dumps(value, sort_keys=True)}\n")
        else:
            stream.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


@click.group()
@click.option("--precision-digits", type=int, default=30, show_default=True,
              help="Working precision in decimal digits.")
@click.option("--target-err", type=float, default=1e-12, show_default=True,
              help="Target absolute error for special-function evaluation.")
@click.option("--quad-target-err", type=float, default=1e-10, show_default=True,
              help="Target absolute error for vertical-line quadrature.")
@click.option("--epsilon", type=float, default=0.0, show_default=True,
              help="Abscissa of cotangent-product lines (0 = automatic).")
@click.option("--format", "output_format", type=click.Choice(["json", "csv", "text"]),
              default="json", show_default=True)
@click.option("--out", type=str, default=None, help="Write output to this file.")
@click.option("--force", is_flag=True, help="Allow overwriting --out.")
@click.option("--budget", "budget_override", type=float, default=None,
              help="Override the pass/fail threshold for verify commands.")
@click.pass_context
def main(ctx, precision_digits, target_err, quad_target_err, epsilon,
         output_format, out, force, budget_override):
    """Cotangent-Hurwitz zeta sums: computation and identity verification."""
    try:
        precision = PrecisionConfig(precision_digits, target_err)
        quad = QuadratureConfig(epsilon, quad_target_err)
    except CotZetaError as exc:
        raise click.UsageError(str(exc))
    ctx.obj = RunManifest("", {}, precision, quad, output_format, out, force,
                          budget_override)


def _opt(decl: str, type=int, default=None, **kwargs):
    """A subcommand option: required when it has no default, else showing it."""
    if default is None:
        return click.option(decl, type=type, required=True, **kwargs)
    return click.option(decl, type=type, default=default, show_default=True, **kwargs)


def _command(group: click.Group, name: str, *options):
    """Register ``fn(manifest, **params)`` as ``group name`` with ``options``.

    The manifest records the command and its parameters as typed; --p/--q
    arrive as the twist ``x = RationalArg(p, q)``; an existing --out without
    --force is refused before anything is computed; refusals and domain
    errors exit with code 2 and a readable message.
    """
    def register(fn):
        @click.pass_context
        def callback(ctx, **params):
            manifest = ctx.find_object(RunManifest)
            if manifest.out is not None and os.path.exists(manifest.out) and not manifest.force:
                raise click.UsageError(
                    f"refusing to overwrite {manifest.out!r} without --force")
            manifest.command = f"{group.name}.{name}"
            manifest.params = {**params, **ctx.meta.get(_TEXT_KEY, {})}
            try:
                if "q" in params:
                    params["x"] = RationalArg(params.pop("p"), params.pop("q"))
                return fn(manifest, **params)
            except (CotZetaError, ValueError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_USAGE)

        for option in reversed(options):
            callback = option(callback)
        return group.command(name)(callback)

    return register


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

@main.group()
def compute():
    """Compute a single quantity and print it with config provenance."""


@_command(compute, "bernoulli", _opt("--n"),
          _opt("--convention", click.Choice(["standard", "zeroed"]), "standard"))
def compute_bernoulli(manifest, n, convention):
    _emit(manifest, {"value": _fraction_json(exact.bernoulli_number(n, convention))})


@_command(compute, "dedekind", _opt("--h"), _opt("--k"))
def compute_dedekind(manifest, h, k):
    _emit(manifest, {"value": _fraction_json(exact.dedekind_sum(h, k))})


@_command(compute, "apostol", _opt("--n"), _opt("--h"), _opt("--k"))
def compute_apostol(manifest, n, h, k):
    _emit(manifest, {"value": _fraction_json(exact.apostol_sum(n, h, k))})


@_command(compute, "bc-sum", _opt("--a", COMPLEX, help="Order a (complex allowed)."),
          _opt("--h"), _opt("--k"))
def compute_bc_sum(manifest, a, h, k):
    val = sums.bc_sum(a, h, k, manifest.precision)
    _emit(manifest, {"value": val.to_json(manifest.digits())})


@_command(compute, "bc-sum-general", _opt("--a", COMPLEX), _opt("--k0"),
          _opt("--ks", INT_LIST, help="Comma-separated inner moduli."),
          _opt("--ms", INT_LIST,
               help="Comma-separated derivative orders, zeta order first."))
def compute_bc_sum_general(manifest, a, k0, ks, ms):
    spec = sums.BCSumSpec(a, k0, tuple(ks), tuple(ms))
    val = sums.bc_sum_general(spec, manifest.precision)
    _emit(manifest, {"spec": spec.to_json(), "value": val.to_json(manifest.digits())})


@_command(compute, "psi-poly", _opt("--n"))
def compute_psi_poly(manifest, n):
    _emit(manifest, {"polynomial": exact.psi_polynomial(n).to_json()})


@_command(compute, "g-poly", _opt("--n"))
def compute_g_poly(manifest, n):
    _emit(manifest, {"polynomial": exact.g_polynomial(n).to_json()})


@_command(compute, "line-integral", _opt("--a", COMPLEX), _opt("--h"), _opt("--k"))
def compute_line_integral(manifest, a, h, k):
    val = recip.line_integral_cotcot(a, h, k, manifest.quad, manifest.precision)
    _emit(manifest, {"value": val.to_json(manifest.digits())})


@_command(compute, "estermann",
          _opt("--regime", click.Choice(["nonpositive", "series", "hurwitz"]),
               "nonpositive"),
          click.option("--k", type=int, default=None, help="Nonpositive regime: s = -k."),
          _opt("--a", COMPLEX),
          click.option("--s", type=COMPLEX, default=None,
                       help="series/hurwitz regime order s."),
          _opt("--p"), _opt("--q"))
def compute_estermann(manifest, regime, k, a, s, x):
    if regime == "nonpositive":
        if k is None:
            raise click.UsageError("nonpositive regime needs --k")
        if a.imag or a.real != int(a.real):
            raise click.UsageError("nonpositive regime needs an integer --a")
        val = estermann.estermann_nonpositive(k, x, int(a.real), manifest.precision)
    else:
        if s is None:
            raise click.UsageError(f"{regime} regime needs --s")
        fn = (estermann.estermann_series if regime == "series"
              else estermann.estermann_hurwitz)
        val = fn(estermann.EstermannPoint(s, x, a), manifest.precision)
    _emit(manifest, {"value": val.to_json(manifest.digits())})


@_command(compute, "cotangent-sum-C", _opt("--a"),
          click.option("--deriv-order", "--k", "k", type=int, required=True),
          _opt("--p"), _opt("--q"))
def compute_cotangent_sum(manifest, a, k, x):
    val = sums.cotangent_sum_C(a, k, x, manifest.precision)
    _emit(manifest, {"value": val.to_json(manifest.digits())})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _coprime_pairs(limit: int):
    for k in range(1, limit + 1):
        for h in range(1, limit + 1):
            if gcd(h, k) == 1:
                yield h, k


def _stream_reports(rows, manifest: RunManifest, **params) -> None:
    """Print one report per parameter tuple of ``rows(manifest, **params)``;
    exit 1 if any residual exceeds its budget (or the --budget override), 2
    if there is no tuple, since then nothing was checked."""
    results = rows(manifest, **params)
    verdicts = []
    with _open_out(manifest) as stream:
        writer = None
        for res in results:
            ok = res.passes(manifest.budget_override)
            verdicts.append(ok)
            doc = res.to_json(manifest.digits(), manifest.budget_override)
            if manifest.output_format == "csv":
                row = {
                    "theorem": doc["theorem"],
                    "params": json.dumps(doc["params"], sort_keys=True),
                    "residual_re": doc["residual"]["re"],
                    "residual_im": doc["residual"]["im"],
                    "budget": doc["budget"],
                    "pass": doc["pass"],
                }
                if writer is None:
                    writer = csv.DictWriter(stream, fieldnames=list(row))
                    writer.writeheader()
                writer.writerow(row)
            elif manifest.output_format == "text":
                status = "PASS" if ok else "FAIL"
                stream.write(
                    f"[{status}] {doc['theorem']} {json.dumps(doc['params'], sort_keys=True)} "
                    f"residual=({doc['residual']['re']}, {doc['residual']['im']}) "
                    f"budget={doc['budget']}\n")
            else:
                stream.write(json.dumps(doc, sort_keys=True) + "\n")
        if not verdicts:
            raise click.UsageError("the parameter sweep is empty; nothing was checked")
    sys.exit(0 if all(verdicts) else EXIT_VERIFY_FAIL)


def _thm13_report(n: int, h: int, k: int, cfg: PrecisionConfig) -> VerifyResult:
    """The exact odd-order law: rhs is the closed form, lhs = rhs + residual."""
    rhs = exact.thm13_rhs(n, h, k)
    return VerifyResult.exact("thm13", {"n": n, "h": h, "k": k},
                              rhs + exact.verify_thm13(n, h, k), rhs, cfg)


def _thm13_rows(manifest, n, hk_max, h, k):
    if hk_max is None and (h is None or k is None):
        raise click.UsageError("need either --hk-max or both --h and --k")
    if hk_max is not None and (h is not None or k is not None):
        raise click.UsageError("--hk-max sweeps all pairs; it cannot be combined with --h/--k")
    pairs = [(h, k)] if hk_max is None else list(_coprime_pairs(hk_max))
    return (_thm13_report(nn, hh, kk, manifest.precision) for nn in n for hh, kk in pairs)


def _once(verifier, *args):
    yield verifier(*args)


_H, _K = _opt("--h"), _opt("--k")
_KS, _MS = _opt("--ks", INT_LIST), _opt("--ms", INT_LIST)
_TWIST = (_opt("--p", default=1), _opt("--q"))
_HK_MAX = click.IntRange(min=1)

# Each identity code of `czeta verify`: its options and a function of
# (manifest, **options) returning its reports lazily, so no report is
# computed before the output is open.
VERIFY = {
    "thm13": ((_opt("--n", INT_LIST, "3,5,7,9"), click.option("--hk-max", type=_HK_MAX),
               click.option("--h", type=int), click.option("--k", type=int)),
              _thm13_rows),
    "dedekind-recip": ((_opt("--hk-max", _HK_MAX, 50),),
                       lambda m, hk_max: (recip.verify_dedekind_recip(h, k, m.precision)
                                          for h, k in _coprime_pairs(hk_max))),
    "thm12": ((_opt("--a", COMPLEX_LIST, help="Comma-separated orders."), _H, _K),
              lambda m, a, h, k: (recip.verify_thm12(av, h, k, m.quad, m.precision)
                                  for av in a)),
    "thm11": ((_opt("--a", COMPLEX), _H, _K,
               _opt("--psi-route", click.Choice(["auto", "polynomial", "numeric"]), "auto")),
              lambda m, a, h, k, psi_route: _once(recip.verify_thm11, a, h, k, m.quad,
                                                  m.precision, psi_route)),
    "thm14-cross": ((_opt("--n", INT_LIST, "3,5"), _opt("--z", COMPLEX, "1")),
                    lambda m, n, z: (recip.verify_thm14_cross(nn, z, None, m.quad,
                                                              m.precision) for nn in n)),
    "cor23": ((_opt("--n", INT_LIST, "3"), _H, _K),
              lambda m, n, h, k: (recip.verify_cor23(nn, h, k, m.quad, m.precision)
                                  for nn in n)),
    "thm31": ((_opt("--a", COMPLEX), _KS, _MS),
              lambda m, a, ks, ms: _once(recip.verify_thm31, a, ks, ms, m.quad,
                                         m.precision)),
    "thm32": ((_opt("--n"), _KS, _MS),
              lambda m, n, ks, ms: _once(recip.verify_thm32, n, ks, ms, m.precision)),
    "cor33": ((_opt("--n"), _KS, _MS),
              lambda m, n, ks, ms: _once(recip.verify_cor33, n, ks, ms, m.quad,
                                         m.precision)),
    "prop43": ((_opt("--s"), _opt("--a"), *_TWIST),
               lambda m, s, a, x: _once(estermann.verify_prop43, s, x, a, m.precision)),
    "thm44": ((_opt("--k"), _opt("--a"), *_TWIST),
              lambda m, k, a, x: _once(estermann.verify_thm44, k, x, a, m.precision)),
    "cor45": ((_opt("--a"), _opt("--k"), *_TWIST),
              lambda m, a, k, x: _once(estermann.verify_cor45, a, k, x, m.precision)),
    "lemma41": ((_opt("--k", INT_LIST, "1,2,3,4,5,6"), *_TWIST),
                lambda m, k, x: (estermann.verify_lemma41(kk, x, m.precision)
                                 for kk in k)),
    "lemma42": ((_opt("--s", COMPLEX), _opt("--z", float), _opt("--n"), *_TWIST),
                lambda m, s, z, n, x: _once(estermann.verify_lemma42, s, z, n, x,
                                            m.precision)),
    "eisenstein-period": ((_opt("--n", INT_LIST, "3,5"), _opt("--z", COMPLEX, "1j")),
                          lambda m, n, z: (recip.verify_eisenstein_period(nn, z, m.precision)
                                           for nn in n)),
}


@main.group()
def verify():
    """Verify an identity over a parameter sweep; one JSON report per tuple."""


for _code, (_options, _rows) in VERIFY.items():
    _command(verify, _code, *_options)(functools.partial(_stream_reports, _rows))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _write_table(manifest: RunManifest, rows: list[dict], fieldnames: list[str]):
    with _open_out(manifest) as stream:
        if manifest.output_format in ("csv", "text"):
            writer = csv.DictWriter(stream, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        else:
            stream.write(json.dumps(
                {"manifest": _manifest_echo(manifest), "rows": rows},
                sort_keys=True, indent=2) + "\n")


@main.group()
def table():
    """Emit coefficient / value tables over parameter ranges."""


@_command(table, "psi-g", _opt("--n", INT_LIST, "3,5,7"))
def table_psi_g(manifest, n):
    rows = []
    for nn in n:
        for kind, poly in (("psi", exact.psi_polynomial(nn)),
                           ("g", exact.g_polynomial(nn))):
            for e, c in sorted(poly.coefficients.items()):
                rows.append({"kind": kind, "n": nn, "exponent": e, **c.to_json(),
                             "zeta_weight": poly.zeta_weight})
    _write_table(manifest, rows,
                 ["kind", "n", "exponent", "num", "den", "pi_pow", "i_pow",
                  "zeta_weight"])


@_command(table, "thm13-rhs", _opt("--n", INT_LIST, "3,5"), _opt("--hk-max", default=5))
def table_thm13_rhs(manifest, n, hk_max):
    rows = [{"n": nn, "h": h, "k": k, **exact.thm13_rhs(nn, h, k).to_json()}
            for nn in n for h, k in _coprime_pairs(hk_max)]
    _write_table(manifest, rows, ["n", "h", "k", "num", "den", "pi_pow", "i_pow"])


if __name__ == "__main__":
    main()
