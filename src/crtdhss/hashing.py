"""Per-level one-way functions that mask shares on the public bulletin.

A family provides `num_levels` distinct deterministic functions mapping a
field element to a value of floor(log2 p) bits, so every output is again a
valid field element. Two backends exist:

- "crypto": SHA-256 with domain separation over (context, level, element).
- "table": seeded digests computed on demand, so exhaustive security audits
  can enumerate preimages exactly. Restricted to small p.

Both backends hash a per-level prefix, (context, [seed,] level), followed by
the element; the table backend verifies at construction that no two levels
agree on every element of F_p. One digest formula, `_digests`, serves
`hash_element`, `hash_vector`, `hash_poly` and that check.

This module owns the rules of a hash configuration: `check_config` is the
one place that tests the backend name, the seed pairing, the seed range and
the table field limit, and both `PublicParams` and `HashFamily` call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .fieldpoly import Poly, _poly, _trim

# CPython's built-in SHA-256 gives the same digests as hashlib's, whose import
# maps OpenSSL's libcrypto into the process (about 3.4 MB of resident memory);
# the module is `_sha256` up to 3.11 and `_sha2` from 3.12.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

BACKENDS = ("crypto", "table")

_CRYPTO_CONTEXT = b"crtdhss.level-hash.v1"
_TABLE_CONTEXT = b"crtdhss.table-hash.v1"

# Full-mode audits, the table backend's entire purpose, enumerate all p inputs
# per coefficient, so the backend refuses larger fields; keeping the limit also
# keeps the exit codes of existing parameter files stable.
TABLE_FIELD_LIMIT = 1 << 20

# A table seed enters the table derivation as 8 big-endian bytes.
TABLE_SEED_LIMIT = 1 << 64


def check_config(backend: str, p: int, table_seed: int | None) -> None:
    """Refuse a hash configuration that no family can be built from."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown hash backend {backend!r}")
    if backend == "crypto":
        if table_seed is not None:
            raise ValueError("the crypto backend takes no seed")
        return
    if table_seed is None:
        raise ValueError("the table backend requires a seed")
    if not 0 <= table_seed < TABLE_SEED_LIMIT:
        raise ValueError("table seed must fit in 64 bits")
    if p > TABLE_FIELD_LIMIT:
        raise ValueError(f"the table hash backend needs p <= {TABLE_FIELD_LIMIT}")


@dataclass(frozen=True, slots=True)
class HashFamily:
    """Immutable family h_1..h_m of level-separated one-way functions.

    Two families are equal exactly when their configurations are.
    """

    backend: str
    p: int
    num_levels: int
    table_seed: int | None = None
    output_bits: int = field(init=False, compare=False, repr=False)
    _width: int = field(init=False, compare=False, repr=False)
    _prefixes: tuple[bytes, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("field modulus must be at least 2")
        if self.num_levels < 1:
            raise ValueError("at least one level is required")
        check_config(self.backend, self.p, self.table_seed)
        object.__setattr__(self, "output_bits", self.p.bit_length() - 1)
        object.__setattr__(self, "_width", (self.p.bit_length() + 7) // 8)
        if self.backend == "crypto":
            context = _CRYPTO_CONTEXT
        else:
            context = _TABLE_CONTEXT + self.table_seed.to_bytes(8, "big")
        levels = range(1, self.num_levels + 1)
        prefixes = tuple(context + level.to_bytes(4, "big") for level in levels)
        object.__setattr__(self, "_prefixes", prefixes)
        if self.backend == "table":
            for i, j in combinations(levels, 2):
                if all(self._digests(i, (v,)) == self._digests(j, (v,)) for v in range(self.p)):
                    raise ValueError(
                        f"degenerate table seed: levels {i} and {j} coincide; "
                        "pick a different seed"
                    )

    @classmethod
    def crypto(cls, p: int, num_levels: int) -> "HashFamily":
        return cls("crypto", p, num_levels)

    @classmethod
    def table(cls, p: int, num_levels: int, seed: int) -> "HashFamily":
        return cls("table", p, num_levels, table_seed=seed)

    def _digests(self, level: int, values) -> list[int]:
        """h_level of each value, unchecked: the module's one digest formula."""
        prefix, width, shift = self._prefixes[level - 1], self._width, 256 - self.output_bits
        return [
            int.from_bytes(sha256(prefix + v.to_bytes(width, "big")).digest(), "big") >> shift
            for v in values
        ]

    def _checked(self, level: int, values: tuple[int, ...]) -> tuple[int, ...]:
        if not values:
            raise ValueError("share vector must have at least one coefficient")
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level {level} out of range 1..{self.num_levels}")
        for v in values:
            if not 0 <= v < self.p:
                raise ValueError(f"input {v} is not an element of F_{self.p}")
        return values

    def hash_element(self, level: int, value: int) -> int:
        """h_level(value), a deterministic element of [0, 2**output_bits)."""
        return self.hash_vector(level, (value,))[0]

    def hash_vector(self, level: int, coeffs) -> list[int]:
        """h_level of each coefficient of a share vector, trailing zeros kept."""
        return self._digests(level, self._checked(level, tuple(coeffs)))

    def hash_poly(self, level: int, coeffs) -> Poly:
        """Lift h_level coefficient-wise over a fixed-length share vector (outputs lie below p)."""
        return _poly(self.p, _trim(self.hash_vector(level, coeffs)))


def family_from_params(params, num_levels: int) -> HashFamily:
    """Build the family named by a parameter set's hash configuration."""
    return HashFamily(params.hash_backend, params.p, num_levels, params.table_seed)
