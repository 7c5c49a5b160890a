"""Stable JSON file formats for parameters, shares, and bulletins.

All polynomial coefficients are decimal strings in ascending order of
power, and p itself is a decimal string, keeping files portable across
word sizes and diff-friendly. Writing is canonical (sorted keys, two-space
indent, trailing newline), so parse -> serialize round-trips byte-exactly
on anything this module produced.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .fieldpoly import Poly
from .params import AccessStructure, PublicParams, check_params
from .scheme import Bulletin, Share

FORMAT_VERSION = 1

Pathish = Union[str, Path]


def canonical_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: Pathish, payload) -> None:
    Path(path).write_text(canonical_dumps(payload), encoding="utf-8")


def _read(path: Pathish) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    return data


def _parse_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{what} must be an integer or decimal string")
    try:
        return int(value, 10) if isinstance(value, str) else value
    except ValueError:
        raise ValueError(f"{what} is not a decimal integer: {value!r}") from None


def _array(values, what: str) -> list:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be an array")
    return values


def _parse_coeffs(values, p: int, what: str) -> tuple[int, ...]:
    out = []
    for v in _array(values, what):
        c = _parse_int(v, what)
        if not 0 <= c < p:
            raise ValueError(f"{what}: coefficient {c} outside [0, {p})")
        out.append(c)
    return tuple(out)


def _coeff_strings(coeffs) -> list[str]:
    return [str(c) for c in coeffs]


# -- parameters --------------------------------------------------------------


def params_payload(structure: AccessStructure, params: PublicParams) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "p": str(params.p),
        "d0": params.d0,
        "level_sizes": list(structure.level_sizes),
        "thresholds": list(structure.thresholds),
        "moduli": [_coeff_strings(m.coeffs) for m in params.moduli],
        "hash_backend": params.hash_backend,
    }
    if params.hash_backend == "table":
        payload["table_seed"] = params.table_seed
    return payload


def save_params(path: Pathish, structure: AccessStructure, params: PublicParams) -> None:
    _write(path, params_payload(structure, params))


def load_params(path: Pathish) -> tuple[AccessStructure, PublicParams]:
    """Parse and fully validate a parameter file."""
    data = _read(path)
    p = _parse_int(data.get("p"), "p")
    structure = AccessStructure(
        tuple(_parse_int(v, "level size") for v in _array(data.get("level_sizes"), "level_sizes")),
        tuple(_parse_int(v, "threshold") for v in _array(data.get("thresholds"), "thresholds")),
    )
    moduli = tuple(
        Poly(p, _parse_coeffs(entry, p, f"modulus {k + 1}"))
        for k, entry in enumerate(_array(data.get("moduli"), "moduli"))
    )
    backend = data.get("hash_backend", "crypto")
    seed = data.get("table_seed")
    params = PublicParams(
        p=p,
        d0=_parse_int(data.get("d0"), "d0"),
        moduli=moduli,
        hash_backend=backend,
        table_seed=_parse_int(seed, "table_seed") if seed is not None else None,
    )
    check_params(structure, params)
    return structure, params


# -- shares ------------------------------------------------------------------


def share_payload(share: Share) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "participant": share.participant,
        "level": share.level,
        "coeffs": _coeff_strings(share.coeffs),
    }


def save_share(path: Pathish, share: Share) -> None:
    _write(path, share_payload(share))


def load_share(path: Pathish, p: int) -> Share:
    data = _read(path)
    participant = _parse_int(data.get("participant"), "participant")
    level = _parse_int(data.get("level"), "level")
    if participant < 1 or level < 1:
        raise ValueError(f"{path}: participant and level are 1-based")
    return Share(participant, level, _parse_coeffs(data.get("coeffs"), p, "share"))


# -- bulletins ---------------------------------------------------------------


def bulletin_payload(bulletin: Bulletin) -> dict:
    entries = [
        {
            "level": level,
            "participant": participant,
            "coeffs": _coeff_strings(poly.coeffs),
        }
        for (level, participant), poly in sorted(bulletin.entries.items())
    ]
    return {"format_version": FORMAT_VERSION, "entries": entries}


def save_bulletin(path: Pathish, bulletin: Bulletin) -> None:
    _write(path, bulletin_payload(bulletin))


def load_bulletin(path: Pathish, p: int) -> Bulletin:
    data = _read(path)
    entries = {}
    for record in _array(data.get("entries"), f"{path}: entries"):
        if not isinstance(record, dict):
            raise ValueError(f"{path}: every entry must be an object")
        level = _parse_int(record.get("level"), "entry level")
        participant = _parse_int(record.get("participant"), "entry participant")
        key = (level, participant)
        if key in entries:
            raise ValueError(f"{path}: duplicate entry for {key}")
        entries[key] = Poly(p, _parse_coeffs(record.get("coeffs"), p, "mask"))
    return Bulletin(entries)
