"""Cross-interpreter check: a fixed CLI ceremony must write the same bytes under each interpreter.

For every interpreter named on the command line, the script runs a fixed ceremony of `crtdhss`
commands in a fresh temporary directory, with `src/` first on PYTHONPATH: `gen-params` with the
crypto and the table hash, `deal`, `deal --yang`, `reconstruct` (one share tampered),
`attack-yang`, and `analyze` in full and coalition mode, over the parameter sets in `SETS`. It
hashes each command's exit code and stdout, and every file the ceremony leaves, with SHA-256,
and compares those hashes with the ones the running interpreter writes. Where an interpreter
imports pytest, it then runs the tier-1 suite under it. Every interpreter gets a line of its own;
none is skipped silently. The script exits 1 if an interpreter cannot run the ceremony, writes a
different hash, or fails tier-1.

With `--against DIR` it instead runs the ceremony under the running interpreter twice, on
`DIR/src` and on this checkout's `src/`, and prints each label whose hash differs: a check that
a change keeps every byte of another checkout, such as its parent commit. It exits 1 if a hash
differs or a command exits with a code the ceremony does not expect.

Stdlib only; it installs nothing. A PYTHONPATH set in the environment is kept after `src/`, so
test packages can be lent to an interpreter that has none.

    python checks/interpreters.py PYTHON ...   # e.g. python3.10 python3.12 python3.13
    python checks/interpreters.py --against DIR   # e.g. a `git archive` of the parent commit
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
M61 = str(2**61 - 1)

# name: gen-params arguments, then the steps run on that parameter file. A step is
# ("deal", secret, seed), ("yang", secret, seed), ("reconstruct", members),
# ("tampered", members, victim), ("attack", members) or ("analyze", mode, coalition, seed).
# Every command exits 0, except the tampered reconstruct (5) and the gen-params of a set
# without steps, which is refused (3).
SETS = {
    "wide": (
        ["--p", M61, "--d0", "4", "--levels", "4,8,12", "--thresholds", "3,6,9",
         "--degrees", "4x24", "--seed", "1"],
        [("deal", "0,7,0,0", 2), ("reconstruct", (1, 2, 3)), ("reconstruct", (1, 2, 3, 4)),
         ("reconstruct", (5, 6, 7, 8, 9, 10)), ("reconstruct", tuple(range(13, 22)))],
    ),
    "cli": (
        ["--p", M61, "--d0", "4", "--levels", "6,10", "--thresholds", "3,6",
         "--degrees", "4x16", "--seed", "3"],
        [("deal", "11,0,12,0", 4), ("yang", "11,0,12,0", 5), ("reconstruct", (1, 2, 3)),
         ("reconstruct", (1, 2, 3, 4)), ("reconstruct", (7, 8, 9, 10, 11, 12)),
         ("tampered", (1, 2, 3, 4), 2), ("attack", (7, 8, 9))],
    ),
    "mixed13": (
        ["--p", "13", "--d0", "1", "--levels", "2,3", "--thresholds", "1,2",
         "--degrees", "2,3,3,4,4", "--seed", "6"],
        [("deal", "5", 7), ("yang", "5", 8), ("reconstruct", (1,)), ("reconstruct", (3, 4)),
         ("reconstruct", (2, 5)), ("attack", (3,))],
    ),
    "mixed61": (
        ["--p", M61, "--d0", "3", "--levels", "3", "--thresholds", "3", "--degrees", "3,5,8",
         "--seed", "23"],
        [("deal", "1,2,3", 24), ("reconstruct", (1, 2, 3))],
    ),
    "mixed64": (  # the largest prime below params.MAX_PRIME: the widest kernel slots
        ["--p", str(2**64 - 59), "--d0", "1", "--levels", "2,3", "--thresholds", "1,2",
         "--degrees", "2,3,3,4,4", "--seed", "25"],
        [("deal", "5", 26), ("yang", "5", 27), ("reconstruct", (1,)), ("reconstruct", (3, 4)),
         ("attack", (3,))],
    ),
    "one_level13": (
        ["--p", "13", "--d0", "1", "--levels", "3", "--thresholds", "2", "--degrees", "1x3",
         "--seed", "9"],
        [("deal", "0", 10), ("reconstruct", (1, 2)), ("reconstruct", (2, 3)),
         ("reconstruct", (1, 2, 3))],
    ),
    "one_level61": (
        ["--p", M61, "--d0", "2", "--levels", "2", "--thresholds", "1", "--degrees", "2x2",
         "--seed", "18"],
        [("deal", "3,0", 19), ("reconstruct", (1,)), ("reconstruct", (2,))],
    ),
    "linear8191": (
        ["--p", "8191", "--d0", "1", "--levels", "3,4", "--thresholds", "2,3",
         "--degrees", "1x7", "--seed", "11"],
        [("deal", "0", 12), ("yang", "0", 13), ("reconstruct", (1, 2)),
         ("reconstruct", (4, 5, 6)), ("attack", (5, 6))],
    ),
    "audit13": (
        ["--p", "13", "--d0", "1", "--levels", "1,2", "--thresholds", "1,2",
         "--degrees", "1,2,2", "--hash-backend", "table", "--table-seed", "12345", "--seed", "14"],
        [("analyze", "full", "2", 15), ("analyze", "coalition", "2", 15), ("deal", "4", 16),
         ("reconstruct", (1,)), ("reconstruct", (2, 3))],
    ),
    "audit3": (
        ["--p", "3", "--d0", "1", "--levels", "1,2", "--thresholds", "1,2",
         "--degrees", "1,2,2", "--hash-backend", "table", "--table-seed", "7", "--seed", "17"],
        [("analyze", "full", "2", 20), ("analyze", "coalition", "3", 21)],
    ),
    "repeat2": (  # the degree-13 sampling draws a modulus it already chose, and skips it
        ["--p", "2", "--d0", "1", "--levels", "1,2", "--thresholds", "1,2", "--degrees", "13x3",
         "--seed", "12"],
        [("deal", "1", 28), ("reconstruct", (1,)), ("reconstruct", (2, 3))],
    ),
    "repeat4099": (  # the linear sampling draws a root it already chose, and skips it
        ["--p", "4099", "--d0", "1", "--levels", "2,2", "--thresholds", "1,2",
         "--degrees", "1x4", "--seed", "21"],
        [("deal", "5", 29), ("reconstruct", (1,)), ("reconstruct", (3, 4))],
    ),
    "refused": (  # F_3 has only two linear moduli without the factor x
        ["--p", "3", "--d0", "1", "--levels", "2,3", "--thresholds", "1,2", "--degrees", "1x5",
         "--seed", "22"],
        [],
    ),
}


def _env(extra_path: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(extra_path), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def _tamper(source: Path, dest: Path, p: int) -> None:
    share = json.loads(source.read_text(encoding="utf-8"))
    share["coeffs"][0] = str((int(share["coeffs"][0]) + 1) % p)
    dest.write_text(json.dumps(share, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _commands(name: str, gen: list[str], steps: list, work: Path):
    """(label, argv, exit code) per command of one parameter set, tampering a share when asked."""
    params, p = f"{name}/params.json", int(gen[gen.index("--p") + 1])
    (work / name).mkdir()

    def shares(directory: str, members) -> list[str]:
        return [f"{name}/{directory}/share_{i:03d}.json" for i in members]

    yield "gen-params", ["gen-params", *gen, "--out", params], 0 if steps else 3
    for kind, *args in steps:
        if kind in ("deal", "yang"):
            secret, seed = args
            argv = ["deal", "--params", params, "--secret", secret, "--seed", str(seed)]
            argv += ["--out-dir", f"{name}/{kind}"] + ["--yang"] * (kind == "yang")
            yield f"{kind} {seed}", argv, 0
        elif kind in ("reconstruct", "tampered"):
            files = shares("deal", args[0])
            if kind == "tampered":
                victim = args[0].index(args[1])
                _tamper(work / files[victim], work / f"{name}/tampered.json", p)
                files[victim] = f"{name}/tampered.json"
            bulletin = ["--bulletin", f"{name}/deal/bulletin.json"]
            argv = ["reconstruct", "--params", params, *bulletin, *files]
            yield f"{kind} {args[0]}", argv, 5 if kind == "tampered" else 0
        elif kind == "attack":
            argv = ["attack-yang", "--params", params, "--masks", f"{name}/yang/masks.json"]
            yield f"attack {args[0]}", argv + shares("yang", args[0]), 0
        else:
            mode, coalition, seed = args
            argv = ["analyze", "--params", params, "--coalition", coalition, "--mode", mode]
            report = ["--report", f"{name}/analyze_{mode}.json"] if mode == "coalition" else []
            yield f"analyze {mode} {coalition}", argv + ["--seed", str(seed), *report], 0


def ceremony(python: str, src: Path = ROOT / "src") -> dict[str, str]:
    """{label: SHA-256} of each command's exit code and stdout, and of each file left behind,
    for the fixed ceremony run by `python` on the package in `src`."""
    hashes, env = {}, _env(src)
    runner = "import sys; from crtdhss.cli import main; sys.exit(main(sys.argv[1:]))"
    with tempfile.TemporaryDirectory(prefix="interpreters-") as tmp:
        work = Path(tmp)
        for name, (gen, steps) in SETS.items():
            for label, argv, expected in _commands(name, gen, steps, work):
                run = subprocess.run(
                    [python, "-c", runner, *argv], cwd=work, env=env, capture_output=True,
                    timeout=600,
                )
                if run.returncode != expected:
                    message = f"exit {run.returncode}, not {expected}: {run.stderr.decode()[-2000:]}"
                    raise RuntimeError(f"{name} {label}: {message}")
                digest = hashlib.sha256(b"%d\n" % run.returncode + run.stdout).hexdigest()
                hashes[f"{name} {label}"] = digest
        for path in sorted(f for f in work.rglob("*") if f.is_file()):
            hashes[path.relative_to(work).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def _tier1(python: str) -> tuple[bool, str]:
    """(passed, summary) of the tier-1 suite under `python`; passed when pytest does not import."""
    env = _env(ROOT / "src")
    if subprocess.run([python, "-c", "import pytest"], env=env, capture_output=True).returncode:
        return True, "tier-1 not run: pytest does not import"
    start = time.perf_counter()
    run = subprocess.run(
        [python, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    lines = [line for line in run.stdout.splitlines() if re.search(r"\d+ (passed|failed)", line)]
    summary = lines[-1].strip("= ") if lines else run.stdout[-500:] + run.stderr[-500:]
    return run.returncode == 0, f"tier-1 {summary} ({time.perf_counter() - start:.1f} s wall)"


def _version(python: str) -> str:
    run = subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True,
    )
    return run.stdout.strip() or "unknown version"


def _differing(reference: dict[str, str], hashes: dict[str, str]) -> list[str]:
    return sorted(k for k in reference.keys() | hashes.keys() if reference.get(k) != hashes.get(k))


def against(other: Path) -> int:
    """Compare the ceremony's hashes on `other`/src with this checkout's, under this interpreter."""
    start = time.perf_counter()
    try:
        theirs, ours = ceremony(sys.executable, other / "src"), ceremony(sys.executable)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"FAILED: the ceremony did not run: {exc}")
        return 1
    differ = _differing(theirs, ours)
    total = len(theirs.keys() | ours.keys())
    print(
        f"{total - len(differ)} of {total} hashes identical on {other / 'src'} and {ROOT / 'src'}"
        f" under {_version(sys.executable)} ({time.perf_counter() - start:.1f} s)"
    )
    for key in differ:
        print(f"       differs: {key}")
    return 1 if differ else 0


def main(interpreters: list[str]) -> int:
    if interpreters[:1] == ["--against"] and len(interpreters) == 2:
        return against(Path(interpreters[1]))
    if not interpreters or interpreters[0].startswith("-"):
        sys.exit("usage: python checks/interpreters.py PYTHON ... | --against DIR")
    start = time.perf_counter()
    reference = ceremony(sys.executable)
    print(f"reference {_version(sys.executable)} ({sys.executable}): {len(reference)} hashes")
    failed = False
    for python in interpreters:
        label = f"{_version(python)} ({python})"
        try:
            hashes = ceremony(python)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"FAILED {label}: the ceremony did not run: {exc}")
            failed = True
            continue
        differ = _differing(reference, hashes)
        passed, tests = _tier1(python)
        verdict = "ok    " if passed and not differ else "FAILED"
        failed |= verdict == "FAILED"
        print(f"{verdict} {label}: {len(reference) - len(differ)} of {len(reference)} hashes match; {tests}")
        for key in differ:
            print(f"       differs: {key}")
    print(f"{len(interpreters)} interpreter(s) checked in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
