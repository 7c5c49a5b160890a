"""The benchmark's workloads: inputs drawn from the seed, outputs checked.

Every workload is a sequence of rounds. Round i draws its inputs from
Random(f"<name>/<seed>/<i>") only, so a round can be replayed exactly and
the same seed always gives the same inputs. Each call into the package is
one operation: `Session.op` times it and records whether its output was
the expected one. One closed-loop client issues the calls in order.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import calibration

MERSENNE_61 = 2**61 - 1


class Op(NamedTuple):
    round: object
    kind: str
    seconds: float
    ok: bool
    kernel_s: float  # calibration kernel time measured just before; 0 if not calibrated


class Session:
    """Times and checks operations; attributes them to spans when traced."""

    def __init__(self, tracer=None, calibrate=False):
        self.tracer = tracer
        self.calibrate = calibrate
        self.ops: list[Op] = []
        self.round = -1
        self.round_wall: dict[int, float] = {}  # wall time of each round, glue included

    def op(self, kind, fn, check):
        """Run fn() as one timed operation; check(result) decides its correctness."""
        kernel_s = calibration.kernel() if self.calibrate else 0.0
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            print(f"operation {kind} in round {self.round} raised:", flush=True)
            traceback.print_exc(file=sys.stdout)
            self.ops.append(Op(self.round, kind, elapsed, False, kernel_s))
            return None
        elapsed = time.perf_counter() - start
        ok = bool(check(result))
        if not ok:
            print(f"operation {kind} in round {self.round} gave a wrong result", flush=True)
        self.ops.append(Op(self.round, kind, elapsed, ok, kernel_s))
        return result


def _run_cli(crt, argv):
    """crtdhss.cli.main(argv) with stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = crt.cli.main(argv)
    return code, out.getvalue()


def _min_level(members, prefix_counts, thresholds):
    for level, (bound, t) in enumerate(zip(prefix_counts, thresholds), start=1):
        if sum(1 for i in members if i <= bound) >= t:
            return level
    return None


def _draw_coalition(rng, level, size, prefix_counts, thresholds):
    """A coalition of `size` members whose smallest authorized level is `level`."""
    pool = range(1, prefix_counts[level - 1] + 1)
    while True:
        members = tuple(sorted(rng.sample(pool, size)))
        if _min_level(members, prefix_counts, thresholds) == level:
            return members


def _secret_text(secret):
    return " ".join(str(c) for c in secret)


class Workload:
    name = ""

    def __init__(self, crt, seed: int, workspace: Path):
        self.crt = crt
        self.seed = seed
        self.workspace = workspace

    def rng(self, index) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def setup(self, session: Session, key="setup") -> None:
        """Build the fixed state the rounds need, then run one warm-up pass.

        The inputs come from rng(key); another key gives another draw.
        """
        raise NotImplementedError

    def run_round(self, session: Session, index: int) -> None:
        raise NotImplementedError


class WideSession(Workload):
    """Library deal + one reconstruct per level, wide parameters, crypto hash."""

    name = "wide_session"
    LEVELS = (4, 8, 12)
    THRESHOLDS = (3, 6, 9)
    D0 = 4
    DEGREE = 4
    DRAWS_PER_LEVEL = 8  # half at bare threshold, half with 1-2 surplus members

    def setup(self, session, key="setup"):
        crt = self.crt
        rng = self.rng(key)
        p = MERSENNE_61
        structure = crt.params.AccessStructure(self.LEVELS, self.THRESHOLDS)
        moduli = crt.params.generate_moduli(p, (self.DEGREE,) * structure.n, rng)
        params = crt.params.PublicParams(p=p, d0=self.D0, moduli=moduli)
        report = crt.params.validate_params(structure, params)
        if not report.ok:
            raise RuntimeError(f"generated parameters are invalid: {report.violations}")
        self.structure, self.params = structure, params
        self.family = crt.hashing.family_from_params(params, structure.m)

        prefix = structure.prefix_counts
        self.pool = []
        for level, t in enumerate(self.THRESHOLDS, start=1):
            drawn = set()
            for k in range(self.DRAWS_PER_LEVEL):
                surplus = 0 if k % 2 == 0 else rng.randint(1, 2)
                size = min(t + surplus, prefix[level - 1])
                drawn.add(_draw_coalition(rng, level, size, prefix, self.THRESHOLDS))
            self.pool.append(sorted(drawn))

        # Warm-up: one deal, then every pooled coalition once, so the CRT
        # basis cache holds the whole pool before the rounds start.
        secret = tuple(rng.randrange(p) for _ in range(self.D0))
        shares, bulletin = crt.scheme.deal(structure, params, self.family, secret, rng)
        for level_pool in self.pool:
            for members in level_pool:
                got = crt.scheme.reconstruct(
                    structure, params, self.family, bulletin, [shares[i - 1] for i in members]
                )
                if got != secret:
                    raise RuntimeError(f"warm-up reconstruct from {members} is wrong")

    def run_round(self, session, index):
        crt = self.crt
        rng = self.rng(index)
        structure, params, family = self.structure, self.params, self.family
        secret = tuple(rng.randrange(params.p) for _ in range(self.D0))
        degrees = params.degrees

        def dealt(result):
            shares, bulletin = result
            return len(shares) == structure.n and all(
                len(s.coeffs) == degrees[s.participant - 1] for s in shares
            )

        result = session.op(
            "deal",
            lambda: crt.scheme.deal(structure, params, family, secret, rng),
            dealt,
        )
        if result is None:
            return
        shares, bulletin = result
        for level_pool in self.pool:
            members = rng.choice(level_pool)
            coalition = [shares[i - 1] for i in members]
            session.op(
                "reconstruct",
                lambda: crt.scheme.reconstruct(structure, params, family, bulletin, coalition),
                lambda got: got == secret,
            )


class CliCeremony(Workload):
    """The file-based operator flow through crtdhss.cli.main, fresh params each round."""

    name = "cli_ceremony"
    LEVELS = (6, 10)
    THRESHOLDS = (3, 6)
    D0 = 4

    def setup(self, session, key="setup"):
        self.workspace.mkdir(parents=True, exist_ok=True)
        self.prefix = (self.LEVELS[0], sum(self.LEVELS))
        self.run_round(session, key)
        if not all(op.ok for op in session.ops):
            raise RuntimeError("the warm-up ceremony failed")
        session.ops.clear()

    def run_round(self, session, index):
        crt = self.crt
        rng = self.rng(index)
        p = MERSENNE_61
        ws = self.workspace
        params_file = ws / "params.json"
        deal_dir, yang_dir = ws / "deal", ws / "yang"
        for directory in (deal_dir, yang_dir):
            shutil.rmtree(directory, ignore_errors=True)
        secret = tuple(rng.randrange(p) for _ in range(self.D0))
        expected = _secret_text(secret) + "\n"
        n = sum(self.LEVELS)

        def share_file(directory, i):
            return str(directory / f"share_{i:03d}.json")

        def wrote(directory, bulletin_name):
            def check(result):
                files = [Path(share_file(directory, i)) for i in range(1, n + 1)]
                files.append(directory / bulletin_name)
                return result == (0, "") and all(f.is_file() for f in files)

            return check

        def prints_secret(result):
            return result == (0, expected)

        gen_seed = str(rng.randrange(2**32))
        session.op(
            "keygen",
            lambda: _run_cli(crt, [
                "gen-params", "--p", str(p), "--d0", str(self.D0),
                "--levels", "6,10", "--thresholds", "3,6", "--degrees", "4x16",
                "--out", str(params_file), "--seed", gen_seed,
            ]),
            lambda result: result == (0, "") and params_file.is_file(),
        )
        deal_seed, yang_seed = rng.randrange(2**32), rng.randrange(2**32)
        common = ["deal", "--params", str(params_file), "--secret", _secret_text(secret)]
        session.op(
            "deal",
            lambda: _run_cli(crt, common + ["--out-dir", str(deal_dir), "--seed", str(deal_seed)]),
            wrote(deal_dir, "bulletin.json"),
        )
        session.op(
            "deal_yang",
            lambda: _run_cli(
                crt, common + ["--out-dir", str(yang_dir), "--seed", str(yang_seed), "--yang"]
            ),
            wrote(yang_dir, "masks.json"),
        )

        bulletin = ["--params", str(params_file), "--bulletin", str(deal_dir / "bulletin.json")]
        bare = _draw_coalition(rng, 1, self.THRESHOLDS[0], self.prefix, self.THRESHOLDS)
        surplus = _draw_coalition(rng, 2, self.THRESHOLDS[1] + 1, self.prefix, self.THRESHOLDS)
        for members in (bare, surplus):
            session.op(
                "reconstruct",
                lambda: _run_cli(
                    crt, ["reconstruct", *bulletin, *(share_file(deal_dir, i) for i in members)]
                ),
                prints_secret,
            )

        # One share of a surplus coalition gets one coefficient changed.
        tampered = _draw_coalition(rng, 2, self.THRESHOLDS[1] + 1, self.prefix, self.THRESHOLDS)
        victim = rng.choice(tampered)
        record = json.loads(Path(share_file(deal_dir, victim)).read_text(encoding="utf-8"))
        slot = rng.randrange(len(record["coeffs"]))
        record["coeffs"][slot] = str((int(record["coeffs"][slot]) + 1) % p)
        tampered_file = ws / "tampered.json"
        tampered_file.write_text(json.dumps(record), encoding="utf-8")
        files = [
            str(tampered_file) if i == victim else share_file(deal_dir, i) for i in tampered
        ]
        session.op(
            "reconstruct_tampered",
            lambda: _run_cli(crt, ["reconstruct", *bulletin, *files]),
            lambda result: result == (5, ""),
        )

        attackers = sorted(rng.sample(range(self.LEVELS[0] + 1, n + 1), 3))
        session.op(
            "attack",
            lambda: _run_cli(crt, [
                "attack-yang", "--params", str(params_file),
                "--masks", str(yang_dir / "masks.json"),
                *(share_file(yang_dir, i) for i in attackers),
            ]),
            prints_secret,
        )


class Audit(Workload):
    """crtdhss analyze in both modes on a fresh tiny table-hash parameter set."""

    name = "audit"
    COALITION = "2"

    def setup(self, session, key="setup"):
        self.workspace.mkdir(parents=True, exist_ok=True)
        self.run_round(session, key)
        if not all(op.ok for op in session.ops):
            raise RuntimeError("the warm-up audit failed")
        session.ops.clear()

    def run_round(self, session, index):
        crt = self.crt
        rng = self.rng(index)
        params_file = self.workspace / "audit_params.json"
        table_seed, gen_seed = str(rng.randrange(2**63)), str(rng.randrange(2**32))
        session.op(
            "keygen",
            lambda: _run_cli(crt, [
                "gen-params", "--p", "13", "--d0", "1", "--levels", "1,2",
                "--thresholds", "1,2", "--degrees", "1,2,2", "--hash-backend", "table",
                "--table-seed", table_seed, "--out", str(params_file), "--seed", gen_seed,
            ]),
            lambda result: result == (0, "") and params_file.is_file(),
        )
        deal_seed = str(rng.randrange(2**32))
        for mode in ("full", "coalition"):
            session.op(
                f"analyze_{mode}",
                lambda: _run_cli(crt, [
                    "analyze", "--params", str(params_file), "--coalition", self.COALITION,
                    "--mode", mode, "--seed", deal_seed, "--workers", "1",
                ]),
                lambda result: _audit_ok(result, mode),
            )


def _audit_ok(result, mode) -> bool:
    code, out = result
    if code != 0:
        return False
    report = json.loads(out)
    ok = (
        report["preimages_match_expected"] is True
        and report["tuples_match_expected"] is True
        and report["histogram"].get(report["dealt_secret"], 0) > 0
    )
    if mode == "coalition":
        ok = ok and report["histogram_uniform"] is True
    return ok


WORKLOADS = {w.name: w for w in (WideSession, CliCeremony, Audit)}
