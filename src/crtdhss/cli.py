"""Operator command line: gen-params, deal, reconstruct, attack-yang, analyze.

Result payloads go to stdout, diagnostics to stderr. All randomness flows
through --seed; without it a command that needs randomness refuses to run
unless --allow-os-entropy is given explicitly. Exit codes are stable:

  0  success
  2  usage error, unparsable input, or invalid parameters
  3  a requested irreducible degree class is exhausted
  4  the supplied shares are not an authorized coalition
  5  pooled shares are inconsistent (tampered or mismatched)
  6  the published transcript does not admit the attack
  7  the enumeration budget is too small for the requested audit
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from pathlib import Path

from . import fileio
from .errors import (
    AttackNotApplicableError,
    BudgetExceededError,
    InconsistentSharesError,
    InsufficientIrreduciblesError,
    UnauthorizedSubsetError,
)
from .hashing import BACKENDS, family_from_params
from .oracle import (
    EnumerationBudget,
    count_fibers,
    enumerate_consistent,
    histogram_entropy_bits,
    observe_coalition,
    preimage_exponent,
    state_count,
)
from .params import AccessStructure, PublicParams, _check_settings, check_params, generate_moduli
from .params import is_authorized
from .scheme import deal, reconstruct
from .yang import yang_attack, yang_deal

_ERRORS_TO_EXIT = (
    (InsufficientIrreduciblesError, 3),
    (UnauthorizedSubsetError, 4),
    (InconsistentSharesError, 5),
    (AttackNotApplicableError, 6),
    (BudgetExceededError, 7),
    # Last: every error above is a ValueError, so this row would shadow them.
    ((ValueError, KeyError, OSError), 2),
)


def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list") from None


def _parse_degrees(text: str, n: int) -> tuple[int, ...]:
    """Degree profile of n entries: '1x7' means seven 1s, '1,1,2' is literal."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        degree, sep, count = tok.partition("x")
        count = int(count) if sep else 1
        if count < 1:
            raise ValueError(f"repeat count in degree token {tok!r} must be at least 1")
        if len(out) + count > n:
            raise ValueError(f"degree profile has more than {n} entries for {n} participants")
        out.extend([int(degree)] * count)
    if len(out) != n:
        raise ValueError(f"degree profile has {len(out)} entries for {n} participants")
    return tuple(out)


def _parse_secret(text: str) -> tuple[int, ...]:
    """Coefficients, low power first, decimal or 0x-prefixed hex."""
    toks = text.replace(",", " ").split()
    if not toks:
        raise ValueError("secret is empty")
    return tuple(int(tok, 0) for tok in toks)


def _rng(args) -> random.Random:
    if args.seed is not None:
        return random.Random(args.seed)
    if args.allow_os_entropy:
        return random.Random()
    raise ValueError("provide --seed, or --allow-os-entropy to use OS randomness")


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="deterministic seed")
    parser.add_argument(
        "--allow-os-entropy",
        action="store_true",
        help="permit OS randomness when --seed is absent",
    )


def cmd_gen_params(args) -> int:
    structure = AccessStructure(
        _csv_ints(args.levels, "--levels"), _csv_ints(args.thresholds, "--thresholds")
    )
    degrees = _parse_degrees(args.degrees, structure.n)
    if (args.table_seed is None) == (args.hash_backend == "table"):
        raise ValueError("--table-seed is required exactly when --hash-backend is table")
    _check_settings(args.p, args.d0, args.hash_backend, args.table_seed)  # before the search
    moduli = generate_moduli(args.p, degrees, _rng(args))
    params = PublicParams(
        p=args.p,
        d0=args.d0,
        moduli=moduli,
        hash_backend=args.hash_backend,
        table_seed=args.table_seed,
    )
    check_params(structure, params)
    family_from_params(params, structure.m)  # refuses a degenerate table seed before writing
    fileio.save_params(args.out, structure, params)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_deal(args) -> int:
    structure, params = fileio.load_params(args.params)
    secret = _parse_secret(args.secret)
    rng = _rng(args)
    if args.yang:
        shares, bulletin = yang_deal(structure, params, secret, rng)
        bulletin_name = "masks.json"
    else:
        family = family_from_params(params, structure.m)
        shares, bulletin = deal(structure, params, family, secret, rng)
        bulletin_name = "bulletin.json"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_bulletin(out_dir / bulletin_name, bulletin)
    for share in shares:
        fileio.save_share(out_dir / f"share_{share.participant:03d}.json", share)
    print(f"wrote {len(shares)} shares and {bulletin_name} to {out_dir}", file=sys.stderr)
    return 0


def cmd_reconstruct(args) -> int:
    structure, params = fileio.load_params(args.params)
    bulletin = fileio.load_bulletin(args.bulletin, params.p)
    shares = [fileio.load_share(path, params.p) for path in args.shares]
    family = family_from_params(params, structure.m)
    secret = reconstruct(structure, params, family, bulletin, shares)
    print(" ".join(str(c) for c in secret))
    return 0


def cmd_attack_yang(args) -> int:
    structure, params = fileio.load_params(args.params)
    masks = fileio.load_bulletin(args.masks, params.p)
    shares = [fileio.load_share(path, params.p) for path in args.shares]
    coalition = sorted(share.participant for share in shares)
    if is_authorized(structure, coalition):
        print(
            f"note: coalition {coalition} is authorized anyway; nothing is broken "
            "by recovering the secret",
            file=sys.stderr,
        )
    else:
        print(
            f"coalition {coalition} is NOT authorized under levels "
            f"{list(structure.level_sizes)} with thresholds "
            f"{list(structure.thresholds)}; recovering the secret from public "
            "masks and these shares alone",
            file=sys.stderr,
        )
    secret = yang_attack(structure, params, masks, shares)
    print(" ".join(str(c) for c in secret))
    return 0


def cmd_analyze(args) -> int:
    structure, params = fileio.load_params(args.params)
    coalition = frozenset(_csv_ints(args.coalition, "--coalition"))
    budget = EnumerationBudget(args.budget)
    view, dealt = observe_coalition(structure, params, coalition, mode=args.mode, rng=_rng(args))

    theta = preimage_exponent(structure, params, coalition)
    p, d0 = params.p, params.d0
    expected_fiber = p**theta
    expected_total = p ** (theta + d0)

    preimage_counts = {
        " ".join(str(c) for c in secret): count
        for secret, count in count_fibers(view, budget).items()
    }
    # A tuple opens to exactly one secret, so the fibers sum to the tuple count.
    tuples_total = sum(preimage_counts.values())

    histogram = enumerate_consistent(view, budget)
    hist_payload = {
        " ".join(str(c) for c in secret): count for secret, count in sorted(histogram.items())
    }
    nonzero = [c for c in histogram.values() if c]
    uniform = len(nonzero) == p**d0 and len(set(nonzero)) == 1
    secret_entropy = math.log2(p**d0)
    conditional_entropy = histogram_entropy_bits(histogram)
    loss = secret_entropy - conditional_entropy

    report = {
        "format_version": 1,
        "p": str(p),
        "d0": d0,
        "coalition": sorted(coalition),
        "mode": args.mode,
        "seed": args.seed,
        "dealt_secret": " ".join(str(c) for c in dealt),
        "preimage_exponent": theta,
        "expected_preimages_per_secret": str(expected_fiber),
        "preimage_counts": preimage_counts,
        "preimages_match_expected": all(
            c == expected_fiber for c in preimage_counts.values()
        ),
        "consistent_tuples": tuples_total,
        "expected_consistent_tuples": str(expected_total),
        "tuples_match_expected": tuples_total == expected_total,
        "dealer_states": state_count(view),
        "histogram": hist_payload,
        "histogram_uniform": uniform,
        "secret_entropy_bits": secret_entropy,
        "conditional_entropy_bits": conditional_entropy,
        "loss_entropy_bits": loss,
    }
    text = fileio.canonical_dumps(report)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
        print(f"wrote {args.report}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtdhss",
        description="Hierarchical threshold secret sharing over F_p[x], "
        "with an attack demo and a brute-force security audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-params", help="generate and validate public parameters")
    gen.add_argument("--p", type=int, required=True, help="prime field modulus")
    gen.add_argument("--d0", type=int, default=1, help="secret degree bound")
    gen.add_argument("--levels", required=True, help="level sizes, e.g. 3,4")
    gen.add_argument("--thresholds", required=True, help="thresholds, e.g. 2,3")
    gen.add_argument("--degrees", required=True, help="modulus degrees, e.g. 1x7 or 1,1,2")
    gen.add_argument("--hash-backend", choices=BACKENDS, default="crypto")
    gen.add_argument("--table-seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output parameter file")
    _add_seed_flags(gen)
    gen.set_defaults(func=cmd_gen_params)

    dealp = sub.add_parser("deal", help="deal shares and the bulletin to files")
    dealp.add_argument("--params", required=True)
    dealp.add_argument("--secret", required=True, help="coefficients, low power first")
    dealp.add_argument("--out-dir", required=True)
    dealp.add_argument("--yang", action="store_true", help="use the insecure two-level scheme")
    _add_seed_flags(dealp)
    dealp.set_defaults(func=cmd_deal)

    rec = sub.add_parser("reconstruct", help="recover the secret from share files")
    rec.add_argument("--params", required=True)
    rec.add_argument("--bulletin", required=True)
    rec.add_argument("shares", nargs="+", help="share files of the coalition")
    rec.set_defaults(func=cmd_reconstruct)

    atk = sub.add_parser("attack-yang", help="break the insecure scheme from public data")
    atk.add_argument("--params", required=True)
    atk.add_argument("--masks", required=True, help="published masks file")
    atk.add_argument("shares", nargs="+", help="the coalition's own share files")
    atk.set_defaults(func=cmd_attack_yang)

    ana = sub.add_parser("analyze", help="brute-force audit of a coalition's view")
    ana.add_argument("--params", required=True)
    ana.add_argument("--coalition", required=True, help="participant indices, e.g. 4,5")
    ana.add_argument("--mode", choices=("coalition", "full"), default="coalition")
    ana.add_argument("--budget", type=int, default=EnumerationBudget().max_states)
    ana.add_argument(
        "--workers", type=int, default=1, help="accepted for old command lines; has no effect"
    )
    ana.add_argument("--report", default=None, help="report file (stdout when omitted)")
    _add_seed_flags(ana)
    ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BaseException as exc:
        for error_type, code in _ERRORS_TO_EXIT:
            if isinstance(exc, error_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
