"""Command-line verification harness.

Subcommands: ``verify-all`` runs the whole check grid and exits 0 only if
every record passes; ``count`` evaluates the closed-form counts (optionally
against the enumeration oracles); ``normalize`` brings a generator vector
to normal form; ``witt-eval``, ``carlitz`` and ``infinity`` expose the
corresponding calculators.

Each subcommand takes only the shared flags it reads.  A flag's value comes
from the command line or, when it is not given, its default, and from
nowhere else.  Exit codes: 0 all passed, 1 some check failed
(a raising check group fails one record; a failed self-check prints one
``error:`` line; a reader that closes stdout early gets 1 and no traceback),
2 usage error, 3 a requested oracle was infeasible under the cap.

The json-lines output is byte-deterministic for a fixed config and seed;
the ``millis`` field is 0 unless ``--timing`` is given (wall-clock values
would break byte-for-byte diffing of CI artifacts).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .asw import AswGenerator, conductor_exponent, infinity_behavior, is_single_ramified_form, witt_normalize
from .carlitz import carlitz_eval, carlitz_poly
from .checks import ALL_CHECK_GROUPS, CheckConfig
from .counting import (
    CountParams,
    VerificationReport,
    monic_prime,
    oracle_asw_classes,
    oracle_cyclic_subgroups,
    s_n,
    t1,
    v_n,
    w,
)
from .fields import field
from .polys import CapExceededError, DEFAULT_ENUM_CAP, parse_poly
from .witt import MAX_WITT_LENGTH, parse_witt

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


_FLAGS = {  # the shared flags: name -> argparse keywords
    "p": dict(type=int, default=2, help="characteristic"),
    "s": dict(type=int, default=1, help="extension degree, q = p^s"),
    "d": dict(type=int, default=1, help="degree of the prime P"),
    "alpha": dict(type=int, default=3, help="conductor bound exponent"),
    "n": dict(type=int, default=1, help="extension log-degree"),
    "prime": dict(type=str, help="override the canonical prime P (polynomial text)"),
    "cap": dict(type=int, default=DEFAULT_ENUM_CAP, help="enumeration cap (ring elements)"),
    "format": dict(choices=("table", "jsonl"), default="table", help="report format"),
    "seed": dict(type=int, default=0, help="seed for sampled property checks"),
    "timing": dict(action="store_true",
                   help="include wall-clock millis in records (breaks byte determinism)"),
}


def _add_flags(parser: argparse.ArgumentParser, names: str):
    """Add the shared flags in ``names`` (space-separated), the ones this
    subcommand reads; any other is a usage error."""
    for name in names.split():
        parser.add_argument("--" + name, **_FLAGS[name])


def _record_to_json(rec: VerificationReport) -> str:
    payload = {
        "check_id": rec.check_id,
        "params": rec.params,
        "formula": _jsonable(rec.formula_value),
        "oracle": _jsonable(rec.oracle_value),
        "status": rec.status,
        "millis": rec.wall_time_ms,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _jsonable(value):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    return str(value)


def _emit(records, fmt: str):
    records = sorted(records, key=lambda r: r.check_id)
    if fmt == "jsonl":
        for rec in records:
            print(_record_to_json(rec))
        return
    width = max((len(r.check_id) for r in records), default=10) + 2
    print(f"{'check':<{width}}{'formula':>14}{'oracle':>14}  {'status':<8}{'millis':>8}")
    for rec in records:
        formula = "-" if rec.formula_value is None else str(rec.formula_value)
        oracle = "-" if rec.oracle_value is None else str(rec.oracle_value)
        print(f"{rec.check_id:<{width}}{formula:>14}{oracle:>14}  {rec.status:<8}"
              f"{rec.wall_time_ms:>8}")
        for name, flag in rec.identity_checks:  # a skip reason, or a failing note
            if rec.status == "skipped" or not flag:
                print(f"{'':<{width}}  {'--' if flag else '!!'} {name}")


def _exit_code(records) -> int:
    return EXIT_FAIL if any(r.status == "fail" for r in records) else EXIT_PASS


def cmd_verify_all(args) -> int:
    cfg = CheckConfig(cap=args.cap, seed=args.seed, timing=args.timing)
    names, chosen = [name for name, _ in ALL_CHECK_GROUPS], set()
    for prefix in args.only:
        hits = {name for name in names if name == prefix or name.startswith(prefix + "-")}
        if not hits:
            raise ValueError(f"--only {prefix!r} names no check group; known: {', '.join(names)}")
        chosen |= hits
    records = []
    for name, group in ALL_CHECK_GROUPS:
        if not args.only or name in chosen:
            try:
                records.extend(group(cfg))
            except Exception as exc:  # a fault in a group fails its one record; the run goes on
                note = (f"error:{type(exc).__name__}: {exc}", False)
                records.append(VerificationReport.compare(name, {}, None, None, identity_checks=(note,)))
    _emit(records, args.format)
    return _exit_code(records)


_T_POWER_RE = re.compile(r"T(?:\^(\d+))?")


def _text_degree(text: str) -> int:
    """The highest power of T written in polynomial text (0 for none): a bound
    on its degree, read before any polynomial is built."""
    return max([0] + [int(e or 1) for e in _T_POWER_RE.findall("".join(text.split()))])


def _prime_from_args(args, fld, degree=None):
    """The monic --prime, or None; ValueError unless it is irreducible and,
    when ``degree`` is given, written with that degree (checked first, on the
    text) and of it."""
    if args.prime is None:
        return None
    if degree is not None and (top := _text_degree(args.prime)) != degree:
        raise ValueError(f"override prime is written with degree {top}, expected {degree}")
    return monic_prime(parse_poly(fld, args.prime), degree)


def cmd_count(args) -> int:
    par = CountParams(p=args.p, s=args.s, d=args.d, alpha=args.alpha, n=args.n)
    fld = field(par.p, par.s)
    prime = _prime_from_args(args, fld, par.d)  # checked with or without --oracle
    records = [
        VerificationReport("count/v_n", par.as_dict(), v_n(par)),
        VerificationReport("count/w", par.as_dict(), w(par.alpha, par)),
        VerificationReport("count/t1", par.as_dict(), t1(par.alpha, par)),
        VerificationReport("count/s_n", par.as_dict(), s_n(par)),
    ]
    if args.oracle:  # over the cap, main reports the error and exits 3
        records.append(VerificationReport.compare(
            "count/oracle-cyclic", par.as_dict(), v_n(par),
            oracle_cyclic_subgroups(par, prime=prime, cap=args.cap)))
        if par.n <= 3:
            records.append(VerificationReport.compare(
                "count/oracle-classes", par.as_dict(), v_n(par),
                oracle_asw_classes(par, prime=prime, cap=args.cap)))
    _emit(records, args.format)
    return _exit_code(records)


def _bound_witt_work(args, fld, *texts, frobenius=False):
    """Raise CapExceededError, before any polynomial is built, when Witt vector
    texts would take more than --cap coefficient operations to normalize or
    combine.  With D the highest power of T written and n the length, poles
    and degrees carry into the top level up to p^(n-1)*D, or up to p^n*D when
    ``frobenius`` says the p-th power of the vector is built (``--op wp`` and
    ``frobenius``), where a product, reduction or gcd takes about the square
    of that degree in operations.  Splitting a denominator into primes takes
    the most of them: a q-th power modulo it per degree up to D/2, and a power
    of about q^d per Cantor-Zassenhaus trial on a product of degree-d primes,
    at most D^2 * ceil(log2 q) products in all.  So the estimate is
    (p^(n-1)*D)^2 * D^2 * ceil(log2 q), with p^n for p^(n-1) under ``frobenius``."""
    texts = [text for text in texts if text]
    d = max([1] + [_text_degree(text) for text in texts])
    n = min(max(text.count(",") for text in texts) + 1, MAX_WITT_LENGTH)
    top = args.p ** (n if frobenius else n - 1) * d
    work = top**2 * d**2 * (fld.q - 1).bit_length()
    if work > args.cap:
        raise CapExceededError(f"a length-{n} Witt vector with T-degrees up to {d} takes about "
                               f"{work} coefficient operations, over the budget of cap {args.cap}")


def _bound_fq_scan(args, fld):
    """Raise CapExceededError when q > --cap: normalizing finds a constant's
    Artin-Schreier coset by a scan of F_q."""
    if fld.q > args.cap:
        raise CapExceededError(f"normalizing scans all {fld.q} elements of F_q, "
                               f"over the budget of cap {args.cap}")


def cmd_normalize(args) -> int:
    fld = field(args.p, args.s)
    _bound_witt_work(args, fld, args.beta, args.prime)
    _bound_fq_scan(args, fld)
    try:
        beta = parse_witt(fld, args.beta)
    except ValueError as exc:
        print(f"error: cannot parse Witt vector: {exc}", file=sys.stderr)
        return EXIT_USAGE
    prime = _prime_from_args(args, fld)  # the verdict compares monic primes
    nf = witt_normalize(AswGenerator(beta))
    record = nf.to_record()
    conductors = {}
    for block in nf.primes:
        lams = block.lambdas()
        if lams[0] > 0:
            m_n = conductor_exponent(lams, args.p)
            conductors[str(block.prime)] = {"M_n": m_n, "conductor_exponent": m_n + 1}
        else:
            conductors[str(block.prime)] = {"note": "not ramified from level 1"}
    record["conductors"] = conductors if conductors else "unramified at every finite prime"
    if prime is None and len(nf.primes) == 1:
        prime = nf.primes[0].prime
    if prime is not None:
        record["single_ramified"] = {"prime": str(prime), "verdict": is_single_ramified_form(nf, prime)}
    b = infinity_behavior(nf)
    record["infinity"] = {"e": b.e, "f": b.f, "g": b.g, "label": b.label}
    print(json.dumps(record, sort_keys=True, indent=2))
    return EXIT_PASS


def cmd_witt_eval(args) -> int:
    fld = field(args.p, args.s)
    _bound_witt_work(args, fld, args.x, args.y, frobenius=args.op in ("wp", "frobenius"))
    x = parse_witt(fld, args.x)
    y = parse_witt(fld, args.y) if args.y else None
    if x.n > MAX_WITT_LENGTH:
        print(f"error: Witt length {x.n} exceeds bound {MAX_WITT_LENGTH}", file=sys.stderr)
        return EXIT_USAGE
    binary = args.op in ("add", "sub", "mul")
    if binary and y is None:
        print("error: --y required for binary operations", file=sys.stderr)
        return EXIT_USAGE
    if args.op == "int-mul":
        result = x.int_mul(args.m)
    else:  # the WittVector method of that name, with y for add, sub and mul
        result = getattr(x, args.op)(y) if binary else getattr(x, args.op)()
    print(str(result))
    return EXIT_PASS


def cmd_carlitz(args) -> int:
    fld = field(args.p, args.s)
    # both bounds read the degrees d of M and dx of x off the text
    d = _text_degree(args.poly)
    if d >= args.cap.bit_length() or fld.q**d > args.cap:  # C_M has u-degree q^deg M
        raise CapExceededError(f"u-degree q^{d} exceeds cap {args.cap}")
    if args.eval_at is not None:
        # C_M(x) has at most (deg x + 1) q^d coefficients, and each of the d + 1
        # digit steps takes a few linear passes over the value
        size = (_text_degree(args.eval_at) + 1) * fld.q**d
        if size > args.cap:
            raise CapExceededError(f"C_M at {args.eval_at} has up to {size} coefficients, "
                                   f"over the budget of cap {args.cap}")
    m = parse_poly(fld, args.poly)
    x = None if args.eval_at is None else parse_poly(fld, args.eval_at)
    cp = carlitz_poly(m)
    payload = {"M": str(m), "coeffs": cp.serialize(), "u_degree": cp.u_degree()}
    if x is not None:
        payload["value"] = str(carlitz_eval(m, x))
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_PASS


def cmd_infinity(args) -> int:
    fld = field(args.p, args.s)
    _bound_witt_work(args, fld, args.beta)
    _bound_fq_scan(args, fld)
    beta = parse_witt(fld, args.beta)
    nf = witt_normalize(AswGenerator(beta))
    b = infinity_behavior(nf)
    print(json.dumps({"s": b.s, "t": b.t, "e": b.e, "f": b.f, "g": b.g, "label": b.label},
                     sort_keys=True))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcount",
        description="Exact verification of cyclic p-power extension counts over F_q(T)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify-all", help="run the full verification grid")
    _add_flags(p_verify, "cap format seed timing")
    p_verify.add_argument("--only", action="append", default=[],
                          help="restrict to check groups with this name prefix (repeatable)")
    p_verify.set_defaults(func=cmd_verify_all)

    p_count = sub.add_parser("count", help="closed-form counts, optionally vs oracles")
    _add_flags(p_count, "p s d alpha n prime cap format")
    p_count.add_argument("--oracle", action="store_true", help="also run enumeration oracles")
    p_count.set_defaults(func=cmd_count)

    p_norm = sub.add_parser("normalize", help="normalize a generator Witt vector")
    _add_flags(p_norm, "p s prime cap")
    p_norm.add_argument("--beta", required=True, help='vector text, e.g. "(1/T^2, 0)"')
    p_norm.set_defaults(func=cmd_normalize)

    p_we = sub.add_parser("witt-eval", help="evaluate Witt vector operations")
    _add_flags(p_we, "p s cap")
    p_we.add_argument("--op", required=True,
                      choices=("add", "sub", "mul", "neg", "frobenius", "wp", "int-mul"))
    p_we.add_argument("--x", required=True, help="first operand vector text")
    p_we.add_argument("--y", help="second operand vector text")
    p_we.add_argument("--m", type=int, default=1, help="integer multiplier for int-mul")
    p_we.set_defaults(func=cmd_witt_eval)

    p_car = sub.add_parser("carlitz", help="Carlitz-module polynomial of M")
    _add_flags(p_car, "p s cap")
    p_car.add_argument("--poly", required=True, help="the acting polynomial M")
    p_car.add_argument("--eval-at", help="optional evaluation point (polynomial text)")
    p_car.set_defaults(func=cmd_carlitz)

    p_inf = sub.add_parser("infinity", help="splitting type of the infinite place")
    _add_flags(p_inf, "p s cap")
    p_inf.add_argument("--beta", required=True, help="generator vector text")
    p_inf.set_defaults(func=cmd_infinity)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.cap < 1:  # every subcommand takes --cap; no enumeration fits below 1
            raise ValueError(f"--cap {args.cap} is below 1, the least that can work")
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not in the exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout early: the rest goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:  # a self-check of the library failed
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
