"""Brute-force security auditor for desk-scale parameter sets.

Everything here answers one question exactly, by exhaustion: given an
unauthorized coalition's view of a transcript, how many dealer choices
remain consistent with it, and how are they distributed over candidate
secrets? Every audit function takes that view as its only input, and both
enumerations read the residues it pins from the congruences the view
derives once (`CoalitionView._levels`):

- `enumerate_consistent` counts the dealer's randomness (secret, blinding
  polynomials, random share vectors) that reproduces the observed view,
  yielding a histogram over secrets. Each pinned residue is linear in the
  outer digits (secret, blindings), so Gauss-Jordan elimination over F_p
  solves those checks once per view and only the solutions are walked. A
  random vector outside the coalition meets the view only through its
  hashes, one coefficient at a time, so it is weighed, not walked, by the
  number of its hash preimages.
- `count_fibers` counts candidate master-polynomial tuples per secret
  (`count_secret_preimages` and `count_consistent_tuples` read its scan),
  each parameterized by its free coefficients and re-verified against the
  coalition's algebraic constraints. The levels share only the secret, so
  each is scanned alone, once for every secret, and the counts multiply.

The two viewpoints cross-validate each other; both are exact counts, never
samples. A state budget guards every enumeration up front. A view carries
only masks a deal publishes (`scheme._layout`), over F_p; a member's mask of
degree d_i or more, which no deal makes, leaves both counts at 0.

View modes:

- "coalition": a dealer state must reproduce the coalition's own shares
  and the bulletin entries published for coalition members.
- "full": additionally every remaining bulletin entry must be present and
  match, which drags the hash function's preimage structure into the
  count. This is decidable only under the table hash backend, where all p
  inputs per coefficient can be enumerated.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Mapping, Optional, Sequence

from .errors import BudgetExceededError, NoCrtSolutionError
from .fieldpoly import Poly, _check_system, _rows, crt_combine, vectors
from .hashing import HashFamily, family_from_params
from .params import AccessStructure, PublicParams, is_authorized
from .scheme import Bulletin, Share, _check_secret, _check_setup, _draw_vector, _layout
from .scheme import _pool_shares, deal, unmask_share

MODE_COALITION = "coalition"
MODE_FULL = "full"

_MODES = (MODE_COALITION, MODE_FULL)


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard cap on enumerated states, enforced before any work starts."""

    max_states: int = 10_000_000

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("budget must allow at least one state")

    def check(self, state_count: int) -> None:
        if state_count > self.max_states:
            raise BudgetExceededError(state_count, self.max_states)


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class CoalitionView:
    """What an unauthorized coalition sees: its shares plus the bulletin. A key no
    deal publishes, a missing mask the mode reads (a member's; in full mode any) or
    a foreign-field entry is refused; a member's unreduced same-field entry is
    kept, and both counts find 0 for it."""

    structure: AccessStructure
    params: PublicParams
    family: HashFamily
    coalition: frozenset[int]
    shares: Mapping[int, tuple[int, ...]]
    bulletin: Bulletin
    mode: str = MODE_COALITION

    def __post_init__(self):
        object.__setattr__(self, "coalition", frozenset(self.coalition))
        object.__setattr__(
            self, "shares", {i: tuple(v) for i, v in dict(self.shares).items()}
        )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.mode == MODE_FULL and self.family.backend != "table":
            raise ValueError(
                "the full-view mode needs the table hash backend: preimage "
                "existence is not decidable against a cryptographic hash"
            )
        if is_authorized(self.structure, self.coalition):
            raise ValueError("the coalition is authorized; nothing to audit")
        if set(self.shares) != set(self.coalition):
            raise ValueError("exactly the coalition members' shares are required")
        _check_setup(self.structure, self.params, self.family)
        published = _layout(self.structure, self.params)[2]
        for key, entry in self.bulletin.entries.items():
            if key not in published:
                raise ValueError(f"bulletin entry {key} is not one a deal publishes")
            if entry.p != self.params.p:
                raise ValueError(f"bulletin entry {key} is not over F_{self.params.p}")
        for key in published:
            if (self.mode == MODE_FULL or key[1] in self.coalition) and key not in self.bulletin:
                raise ValueError(f"bulletin lacks entry {key}, which every deal publishes")
        _pool_shares(self.structure, self.params, _member_shares(self))

    @functools.cached_property
    def _levels(self) -> tuple[tuple[list[Poly], list[Poly], Poly, int], ...]:
        """Per level l: the members' moduli, the residues of f_l they pin,
        the step x**d0 times those moduli, and f_l's degree cap."""
        params, shares = self.params, _member_shares(self)
        levels = []
        for level, (bound, t) in enumerate(
            zip(self.structure.prefix_counts, self.structure.thresholds), start=1
        ):
            pinned = [s for s in shares if s.participant <= bound]
            mods = [params.moduli[s.participant - 1] for s in pinned]
            residues = [unmask_share(self.family, self.bulletin, s, level) for s in pinned]
            step = functools.reduce(mul, mods, params.secret_modulus)
            levels.append((mods, residues, step, sum(params.degrees[:t])))
        return tuple(levels)


def _member_shares(view: CoalitionView) -> list[Share]:
    """The coalition's shares as `Share` records, by participant."""
    return [Share(i, view.structure.level_of(i), view.shares[i]) for i in sorted(view.shares)]


def observe_coalition(
    structure: AccessStructure,
    params: PublicParams,
    coalition,
    mode: str = MODE_COALITION,
    rng: Optional[random.Random] = None,
) -> tuple[CoalitionView, tuple[int, ...]]:
    """Deal a transcript and record the coalition's view of it.

    Returns the view together with the secret that was dealt, so audits can
    compare the histogram against the ground truth.
    """
    members = frozenset(coalition)
    for i in sorted(members):
        structure.level_of(i)  # range check before dealing
    rng = rng if rng is not None else random.Random(0)
    family = family_from_params(params, structure.m)
    vector = _draw_vector(rng, params.p, params.d0)
    shares, bulletin = deal(structure, params, family, vector, rng)
    view = CoalitionView(
        structure=structure,
        params=params,
        family=family,
        coalition=members,
        shares={i: shares[i - 1].coeffs for i in members},
        bulletin=bulletin,
        mode=mode,
    )
    return view, vector


def preimage_exponent(structure: AccessStructure, params: PublicParams, coalition) -> int:
    """Exponent e with exactly p**e consistent master tuples per secret.

    Sums, over levels, the free degrees left in each master polynomial once
    the coalition's congruences and the shared secret slot are pinned.
    Nonnegative for every unauthorized coalition under valid parameters.
    """
    members = frozenset(coalition)
    if is_authorized(structure, members):
        raise ValueError("the coalition is authorized; the count is not defined")
    degrees = params.degrees
    total = 0
    for bound, t in zip(structure.prefix_counts, structure.thresholds):
        inside = sum(degrees[i - 1] for i in members if i <= bound)
        total += sum(degrees[:t]) - inside - params.d0
    return total


# ---------------------------------------------------------------------------
# Dealer-randomness enumeration
# ---------------------------------------------------------------------------


def state_count(view: CoalitionView) -> int:
    """Number of dealer-randomness states behind one transcript."""
    params = view.params
    alpha_lens, n_random, _ = _layout(view.structure, params)
    return params.p ** (params.d0 + sum(alpha_lens) + sum(params.degrees[:n_random]))


def _residue_rows(d0: int, alpha_lens: list, level: int, modulus: Poly) -> list[tuple[int, ...]]:
    """Row k: the weight of each outer digit in coefficient k of f_level mod `modulus`.

    The outer digits are secret | alpha_1..alpha_m (lengths `alpha_lens`). f_level's
    coefficients are the secret's d0 digits followed by alpha_level's, so each row of
    x**j mod the modulus is split there and padded with the other levels' zeros.
    """
    before, after = sum(alpha_lens[: level - 1]), sum(alpha_lens[level:])
    rows = _rows((modulus,), d0 + alpha_lens[level - 1])
    return [(*row[:d0], *(0,) * before, *row[d0:], *(0,) * after) for row in rows]


def _solve(checks: Sequence[tuple[Sequence[int], int]], n: int, p: int) -> Optional[list]:
    """Every x in F_p**n with row . x = want mod p for each (row, want) check.

    Gauss-Jordan elimination: each row is reduced by the pivot rows so far,
    scaled to a leading 1 and cleared from the pivot rows above. Returns
    (c_j, w_j) per digit j: the solutions are x_j = c_j + w_j . t for t in
    F_p**(n - rank), c the particular solution and column f of w the kernel
    vector of free digit f. None when the checks contradict each other.
    """
    pivots: dict[int, list[int]] = {}  # pivot column -> reduced row | want
    for row, want in checks:
        row = [*row, want]
        for col, pivot in pivots.items():
            row = [(a - row[col] * b) % p for a, b in zip(row, pivot)]
        col = next((j for j in range(n) if row[j]), None)
        if col is None:
            if row[n]:
                return None  # 0 = want != 0
            continue
        inv = pow(row[col], -1, p)
        row = [a * inv % p for a in row]
        for above, pivot in pivots.items():
            pivots[above] = [(a - pivot[col] * b) % p for a, b in zip(pivot, row)]
        pivots[col] = row
    free = [j for j in range(n) if j not in pivots]
    return [
        (pivots[j][n], [-pivots[j][f] % p for f in free]) if j in pivots
        else (0, [int(j == f) for f in free])
        for j in range(n)
    ]


def _checks(view: CoalitionView) -> list[tuple[tuple[int, ...], int]]:
    """(row, want) over the outer digits: coefficient k of each pinned residue of f_l."""
    d0, alpha_lens, checks = view.params.d0, _layout(view.structure, view.params)[0], []
    for level, (mods, residues, _, _) in enumerate(view._levels, start=1):
        for mod, residue in zip(mods, residues):
            checks += zip(_residue_rows(d0, alpha_lens, level, mod), residue.padded(mod.degree))
    return checks


def _count_states(view: CoalitionView) -> dict[tuple[int, ...], int]:
    """Histogram over secrets of the dealer states that reproduce the view.

    Every residue of f_l that the coalition pins (`CoalitionView._levels`)
    is linear in the outer digits secret | alpha_1..alpha_m, so the pinned
    checks are solved once and only their solutions are walked:
    p**(n - rank) points of the n outer digits. A mask (level, i) of a random
    participant outside the coalition reads coefficient k of f_level mod m_i
    as r_k = entry_k + h_level(c_ik) mod p with c_i free: each of its
    coefficients admits |{v : h_l(v) = r_lk - entry_lk mod p for each
    selected level l}| values, and the point counts with the product of
    those weights (p per coefficient when no level is selected).
    """
    params, family, entries = view.params, view.family, view.bulletin.entries
    p, d0, degrees = params.p, params.d0, params.degrees
    alpha_lens, _, keys = _layout(view.structure, params)

    levels: dict[int, list[int]] = {}  # random participant -> levels of its selected masks
    for level, i in keys:
        selected = levels.setdefault(i, [])
        if view.mode == MODE_FULL or i in view.coalition:
            if entries[(level, i)].degree >= degrees[i - 1]:
                return {}  # every dealt entry is reduced mod m_i
            selected.append(level)

    solution = _solve(_checks(view), d0 + sum(alpha_lens), p)
    if solution is None:
        return {}
    # (terms, counts) per free coefficient k: terms pair row k of each selected
    # level with entry coordinate k; counts maps the levels' hash tuple of v to
    # the number of v in F_p producing it.
    free = []
    for i, selected in levels.items():
        if i in view.coalition:
            continue
        modulus = params.moduli[i - 1]
        rows = [_residue_rows(d0, alpha_lens, level, modulus) for level in selected]
        padded = [entries[(level, i)].padded(degrees[i - 1]) for level in selected]
        digests = [family.hash_vector(level, range(p)) for level in selected]
        counts = Counter(zip(*digests)) if digests else Counter({(): p})
        for k in range(degrees[i - 1]):
            free.append(([(r[k], e[k]) for r, e in zip(rows, padded)], counts))

    histogram: dict[tuple[int, ...], int] = {}
    for coords in vectors(p, len(solution[0][1])):
        digits = [(c + sum(map(mul, w, coords))) % p for c, w in solution]
        weight = 1
        for terms, counts in free:
            weight *= counts[tuple((sum(map(mul, row, digits)) - e) % p for row, e in terms)]
            if not weight:
                break
        if weight:
            secret = tuple(digits[:d0])
            histogram[secret] = histogram.get(secret, 0) + weight
    return histogram


def enumerate_consistent(
    view: CoalitionView,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> dict[tuple[int, ...], int]:
    """Exact histogram over secrets of dealer states matching the view.

    The enumeration space is every (secret, blinding, random-vector) choice
    the dealer could have made; a state counts when it reproduces the
    coalition's shares and the masks selected by the view mode. The budget
    bounds that space, `state_count(view)`; the walk itself visits only the
    p**(n - rank) (secret, blinding) choices that solve the view's n-digit
    linear checks and weighs each by its number of matching random vectors.
    """
    budget.check(state_count(view))
    histogram = _count_states(view)
    return {secret: histogram.get(secret, 0) for secret in vectors(view.params.p, view.params.d0)}


# ---------------------------------------------------------------------------
# Master-tuple enumeration (free-coefficient parameterization)
# ---------------------------------------------------------------------------


def _scan_fibers(view: CoalitionView, secrets: Sequence[tuple[int, ...]]) -> dict:
    """{secret: consistent master tuples whose bottom poly opens to it}, one pass per level.

    Levels share nothing but the secret, so each f_l is scanned on its own
    and the counts multiply. CRT is linear, so the candidates for secret s
    are base + sum s_j unit_j + sum t_k x**k step, base solving the members'
    residues with 0 in the secret slot and unit_j solving x**j there and 0
    elsewhere. Every candidate is re-verified against each constraint before
    it counts; the parameterization proposes, the conditions dispose.
    """
    p, d0, x_d0 = view.params.p, view.params.d0, view.params.secret_modulus
    counts = dict.fromkeys(secrets, 1)
    for mods, residues, step, cap in view._levels:
        if any(r.degree >= mod.degree for mod, r in zip(mods, residues)):
            return dict.fromkeys(secrets, 0)  # no candidate meets an unreduced residue
        # A negative free length leaves t = () as the only candidate; the
        # degree-cap check rejects it when the base does not fit.
        free, moduli, zeros = max(0, cap - step.degree), [x_d0, *mods], [Poly(p)] * len(mods)
        vecs = [crt_combine([Poly(p), *residues], moduli)]
        vecs += [crt_combine([Poly.x_power(p, j), *zeros], moduli) for j in range(d0)]
        vecs += [step.shift(k) for k in range(free)]
        length = max(cap, *(len(v.coeffs) for v in vecs))
        columns = list(zip(*(v.padded(length) for v in vecs)))
        rows = _rows(tuple(mods), length) if mods else []
        want = [c for m, r in zip(mods, residues) for c in r.padded(m.degree)]
        seen = set()
        for secret in secrets:
            before = len(seen)
            for t in vectors(p, free):
                digits = (1, *secret, *t)
                g = tuple([sum(map(mul, digits, column)) % p for column in columns])
                if any(g[cap:]) or g[:d0] != secret or (
                    [sum(map(mul, row, g)) % p for row in rows] != want
                ):
                    continue
                if g in seen:
                    raise AssertionError("free-coefficient parameterization collided")
                seen.add(g)
            counts[secret] *= len(seen) - before
    return counts


def count_fibers(view: CoalitionView, budget: EnumerationBudget = DEFAULT_BUDGET) -> dict:
    """Exact number of master tuples consistent with the view, per secret they open to."""
    p, d0 = view.params.p, view.params.d0
    budget.check(p ** (preimage_exponent(view.structure, view.params, view.coalition) + d0))
    return _scan_fibers(view, list(vectors(p, d0)))


def count_secret_preimages(
    view: CoalitionView,
    secret: Sequence[int],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Exact number of master tuples consistent with the view opening to one secret."""
    vector = _check_secret(view.params, secret)
    budget.check(view.params.p ** preimage_exponent(view.structure, view.params, view.coalition))
    return _scan_fibers(view, [vector])[vector]


def count_consistent_tuples(
    view: CoalitionView,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> int:
    """Exact number of master tuples consistent with the view."""
    return sum(count_fibers(view, budget).values())


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def histogram_entropy_bits(histogram: Mapping[tuple[int, ...], int]) -> float:
    """Shannon entropy of a count histogram, in bits."""
    counts = [c for c in histogram.values() if c]
    if not counts:
        raise ValueError("histogram is empty")
    if len(set(counts)) == 1:
        return math.log2(len(counts))
    total = sum(counts)
    return math.log2(total) - sum(c * math.log2(c) for c in counts) / total


def loss_entropy(view: CoalitionView, budget: EnumerationBudget = DEFAULT_BUDGET) -> float:
    """Bits the view leaks about the secret: H(S) minus histogram entropy.

    Exactly 0.0 in "coalition" mode; nonnegative (up to float rounding) and
    merely *reported* in "full" mode, where the hash table's collision
    structure decides how much the published masks give away.
    """
    histogram = enumerate_consistent(view, budget)
    if not any(histogram.values()):
        raise ValueError("no dealer state reproduces this view")
    p, d0 = view.params.p, view.params.d0
    return math.log2(p**d0) - histogram_entropy_bits(histogram)


# ---------------------------------------------------------------------------
# Exhaustive CRT (test oracle for the reconstruction path)
# ---------------------------------------------------------------------------


def crt_bruteforce(
    residues: Sequence[Poly],
    moduli: Sequence[Poly],
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> Poly:
    """Solve a congruence system by trying every candidate polynomial.

    Scans all p**(sum of modulus degrees) polynomials below the product
    degree and demands exactly one solution, making it an independent check
    of CRT reconstruction. No coprimality is assumed: inconsistent systems
    over non-coprime moduli are reported as having no solution. A malformed
    system is refused exactly as `crt_combine` refuses it; the
    `EnumerationBudget` then bounds the scan before it starts.
    """
    p = _check_system(residues, moduli)
    total_degree = sum(m.degree for m in moduli)
    budget.check(p**total_degree)

    wants = [c for r, m in zip(residues, moduli) for c in (r % m).padded(m.degree)]
    checks = list(zip(_rows(tuple(moduli), total_degree), wants))
    matches = []
    for coeffs in vectors(p, total_degree):
        if all(sum(map(mul, row, coeffs)) % p == want for row, want in checks):
            matches.append(Poly(p, coeffs))
            if len(matches) > 1:
                raise ValueError(
                    "congruence system has multiple low-degree solutions; "
                    "the moduli are not coprime"
                )
    if not matches:
        raise NoCrtSolutionError("no polynomial satisfies every congruence")
    return matches[0]
