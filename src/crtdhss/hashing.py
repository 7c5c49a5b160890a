"""Per-level one-way functions that mask shares on the public bulletin.

A family provides `num_levels` distinct deterministic functions mapping a
field element to a value of floor(log2 p) bits, so every output is again a
valid field element. Two backends exist:

- "crypto": SHA-256 with domain separation over (context, level, element).
- "table": a seeded pseudorandom table, fully materialized so exhaustive
  security audits can enumerate preimages exactly. Restricted to small p.

The functions for different levels are obtained from one primitive by
feeding the level index into the hash input; the table backend verifies
exact distinctness of its level tables at construction.
"""

from __future__ import annotations

import hashlib

from .fieldpoly import Poly

CRYPTO_PRIMITIVE = "sha256"

_CRYPTO_CONTEXT = b"crtdhss.level-hash.v1"
_TABLE_CONTEXT = b"crtdhss.table-hash.v1"

# The table backend materializes num_levels * p entries; refuse fields too
# large for exhaustive work, which is that backend's entire purpose.
TABLE_FIELD_LIMIT = 1 << 20

# A table seed enters the table derivation as 8 big-endian bytes.
TABLE_SEED_LIMIT = 1 << 64


def _digest_to_bits(digest: bytes, bits: int) -> int:
    return int.from_bytes(digest, "big") >> (8 * len(digest) - bits)


class HashFamily:
    """Immutable family h_1..h_m of level-separated one-way functions."""

    __slots__ = ("backend", "p", "num_levels", "output_bits", "table_seed", "_tables", "_width")

    def __init__(self, backend: str, p: int, num_levels: int, table_seed: int | None = None):
        if backend not in ("crypto", "table"):
            raise ValueError(f"unknown hash backend {backend!r}")
        if p < 2:
            raise ValueError("field modulus must be at least 2")
        if num_levels < 1:
            raise ValueError("at least one level is required")
        self.backend = backend
        self.p = p
        self.num_levels = num_levels
        self.output_bits = p.bit_length() - 1
        self._width = (p.bit_length() + 7) // 8
        if backend == "table":
            if table_seed is None:
                raise ValueError("the table backend requires a seed")
            if not 0 <= table_seed < TABLE_SEED_LIMIT:
                raise ValueError("table seed must fit in 64 bits")
            if p > TABLE_FIELD_LIMIT:
                raise ValueError(
                    f"table backend materializes all {p} inputs; p must be <= {TABLE_FIELD_LIMIT}"
                )
            self.table_seed = table_seed
            self._tables = self._build_tables()
            self._check_tables_distinct()
        else:
            if table_seed is not None:
                raise ValueError("the crypto backend takes no seed")
            self.table_seed = None
            self._tables = None

    @classmethod
    def crypto(cls, p: int, num_levels: int) -> "HashFamily":
        return cls("crypto", p, num_levels)

    @classmethod
    def table(cls, p: int, num_levels: int, seed: int) -> "HashFamily":
        return cls("table", p, num_levels, table_seed=seed)

    def _build_tables(self) -> tuple[tuple[int, ...], ...]:
        seed_bytes = self.table_seed.to_bytes(8, "big")
        bits = self.output_bits
        tables = []
        for level in range(1, self.num_levels + 1):
            prefix = _TABLE_CONTEXT + seed_bytes + level.to_bytes(4, "big")
            tables.append(
                tuple(
                    _digest_to_bits(
                        hashlib.sha256(prefix + v.to_bytes(self._width, "big")).digest(),
                        bits,
                    )
                    for v in range(self.p)
                )
            )
        return tuple(tables)

    def _check_tables_distinct(self) -> None:
        for i in range(self.num_levels):
            for j in range(i + 1, self.num_levels):
                if self._tables[i] == self._tables[j]:
                    raise ValueError(
                        f"degenerate table seed: levels {i + 1} and {j + 1} coincide; "
                        "pick a different seed"
                    )

    def hash_element(self, level: int, value: int) -> int:
        """h_level(value), a deterministic element of [0, 2**output_bits)."""
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level {level} out of range 1..{self.num_levels}")
        if not 0 <= value < self.p:
            raise ValueError(f"input {value} is not an element of F_{self.p}")
        if self._tables is not None:
            return self._tables[level - 1][value]
        data = (
            _CRYPTO_CONTEXT
            + level.to_bytes(4, "big")
            + value.to_bytes(self._width, "big")
        )
        return _digest_to_bits(hashlib.sha256(data).digest(), self.output_bits)

    def hash_poly(self, level: int, coeffs) -> Poly:
        """Lift h_level coefficient-wise over a fixed-length share vector."""
        vector = tuple(coeffs)
        if not vector:
            raise ValueError("share vector must have at least one coefficient")
        return Poly(self.p, (self.hash_element(level, c) for c in vector))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HashFamily)
            and self.backend == other.backend
            and self.p == other.p
            and self.num_levels == other.num_levels
            and self.table_seed == other.table_seed
        )

    def __hash__(self) -> int:
        return hash((self.backend, self.p, self.num_levels, self.table_seed))

    def __reduce__(self):
        return (HashFamily, (self.backend, self.p, self.num_levels, self.table_seed))

    def __repr__(self) -> str:
        seed = "" if self.table_seed is None else f", seed={self.table_seed}"
        return f"HashFamily({self.backend!r}, p={self.p}, levels={self.num_levels}{seed})"


def family_from_params(params, num_levels: int) -> HashFamily:
    """Build the family named by a parameter set's hash configuration."""
    if params.hash_backend == "table":
        return HashFamily.table(params.p, num_levels, params.table_seed)
    return HashFamily.crypto(params.p, num_levels)
