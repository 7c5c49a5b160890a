"""Span tracing of the crtdhss layers, applied from outside the package.

`Tracer.install` replaces each traced public function with a wrapper in
every crtdhss module that holds a reference to it (its import sites), so
calls between modules are seen without changing the package. Spans are kept
in memory as [name, start, end, parent, op] records and written out once, at
the end of a run. `assert_unpatched` proves that no wrapper is live while
the untraced run measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

_MARK = "_perfbench_wrapped"

# (module, attribute, span name); a dotted attribute is a method of a class.
TRACED = (
    ("params", "validate_params", "params.validate_params"),
    ("params", "generate_moduli", "params.generate_moduli"),
    ("params", "is_irreducible", "params.is_irreducible"),
    ("fieldpoly", "poly_gcd", "fieldpoly.poly_gcd"),
    ("fieldpoly", "crt_combine", "fieldpoly.crt_combine"),
    ("fieldpoly", "pow_mod", "fieldpoly.pow_mod"),
    ("hashing", "family_from_params", "hashing.family_build"),
    ("hashing", "HashFamily.hash_poly", "hashing.hash_poly"),
    ("scheme", "deal", "scheme.deal"),
    ("scheme", "reconstruct", "scheme.reconstruct"),
    ("yang", "yang_deal", "yang.yang_deal"),
    ("yang", "yang_attack", "yang.yang_attack"),
    ("oracle", "enumerate_consistent", "oracle.enumerate_consistent"),
    ("oracle", "count_consistent_tuples", "oracle.count_consistent_tuples"),
    ("oracle", "count_secret_preimages", "oracle.count_secret_preimages"),
    ("fileio", "load_params", "fileio.load_params"),
    ("fileio", "load_share", "fileio.load_share"),
    ("fileio", "save_share", "fileio.save_share"),
    ("fileio", "load_bulletin", "fileio.load_bulletin"),
    ("fileio", "save_bulletin", "fileio.save_bulletin"),
    ("cli", "main", "cli.main"),
)

CLI_COMMANDS = ("gen-params", "deal", "reconstruct", "attack-yang", "analyze")


def _package_modules(package: str):
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def _resolve(root, dotted: str):
    owner = root
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def assert_unpatched() -> None:
    """Raise if any tracing wrapper is reachable from the crtdhss package."""
    for module in _package_modules("crtdhss"):
        for value in list(vars(module).values()):
            if getattr(value, _MARK, False):
                raise RuntimeError(f"tracing wrapper still live in {module.__name__}")
            if isinstance(value, type):
                for member in vars(value).values():
                    if getattr(member, _MARK, False):
                        raise RuntimeError(f"tracing wrapper still live on {value.__name__}")


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, crt):
        self.crt = crt
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_kinds: list[str] = []
        self._op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        """Attribute every span from now on to a new operation of this kind."""
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1

    def ops_of(self, kind: str) -> int:
        return sum(1 for k in self.op_kinds if k == kind)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, on_result):
        spans, stack = self.spans, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0, parent, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                parent_name = spans[parent][0] if parent >= 0 else None
                on_result(counters, args, kwargs, result, parent_name)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        crt = self.crt
        hooks = _result_hooks(crt)
        for module_name, dotted, span_name in TRACED:
            home = getattr(crt, module_name)
            owner, attr = _resolve(home, dotted)
            original = getattr(owner, attr)
            name = _cli_span_name if span_name == "cli.main" else span_name
            wrapper = self._wrap(name, original, hooks.get(span_name))
            if owner is home:
                for module in _package_modules(crt.__name__):
                    if vars(module).get(attr) is original:
                        self._patch(module, attr, wrapper)
            else:
                self._patch(owner, attr, wrapper)

        poly = crt.fieldpoly.Poly
        divmod_original = poly.__divmod__
        counters = self.counters

        def counted_divmod(a, b):
            counters["fieldpoly.divmod.calls"] += 1
            return divmod_original(a, b)

        setattr(counted_divmod, _MARK, True)
        self._patch(poly, "__divmod__", counted_divmod)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\top_kind\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                kind = self.op_kinds[op] if op >= 0 else "-"
                out.write(
                    f"{index}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}"
                    f"\t{parent}\t{op}\t{kind}\n"
                )


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def _result_hooks(crt):
    state_count = crt.oracle.state_count

    def irreducible(counters, args, kwargs, result, parent):
        counters["params.is_irreducible.accepted"] += bool(result)

    def crt_combine(counters, args, kwargs, result, parent):
        if parent == "scheme.reconstruct":
            residues = args[0] if args else kwargs["residues"]
            counters["scheme.reconstruct.congruences"] += len(residues)

    def enumerate_consistent(counters, args, kwargs, result, parent):
        view = args[0] if args else kwargs["view"]
        counters["oracle.states_enumerated"] += state_count(view)
        counters["oracle.states_accepted"] += sum(result.values())

    def cli_main(counters, args, kwargs, result, parent):
        code = result if result in (0, 5) else "other"
        counters[f"cli.exit_codes.{code}"] += 1

    return {
        "params.is_irreducible": irreducible,
        "fieldpoly.crt_combine": crt_combine,
        "oracle.enumerate_consistent": enumerate_consistent,
        "cli.main": cli_main,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts, busy times and self times derived from the spans.

    Self time is a span's duration minus the durations of its direct child
    spans; the code is single-threaded, so children never overlap.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    validations_in_reconstruct = 0
    for index, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_time[index]
        if name == "params.validate_params" and op >= 0 and tracer.op_kinds[op] == "reconstruct":
            validations_in_reconstruct += 1
    c = tracer.counters
    cli_self = sum(v for k, v in own.items() if k.startswith("cli.main"))

    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("params.validate_params.calls", calls["params.validate_params"], "count")
    put("params.validate_params.time_s", busy["params.validate_params"], "s")
    put(
        "params.validate_params.calls_per_reconstruct",
        _ratio(validations_in_reconstruct, tracer.ops_of("reconstruct")),
        "count",
    )
    put("fieldpoly.poly_gcd.calls", calls["fieldpoly.poly_gcd"], "count")
    put("fieldpoly.poly_gcd.time_s", busy["fieldpoly.poly_gcd"], "s")
    put("fieldpoly.divmod.calls", c["fieldpoly.divmod.calls"], "count")
    put("fieldpoly.crt_combine.calls", calls["fieldpoly.crt_combine"], "count")
    put("fieldpoly.crt_combine.time_s", busy["fieldpoly.crt_combine"], "s")
    put("fieldpoly.crt_basis.hits", cache_hits, "count")
    put("fieldpoly.crt_basis.misses", cache_misses, "count")
    put("fieldpoly.crt_basis.hit_ratio", _ratio(cache_hits, cache_hits + cache_misses), "ratio")
    put("fieldpoly.pow_mod.time_s", busy["fieldpoly.pow_mod"], "s")
    put("params.is_irreducible.calls", calls["params.is_irreducible"], "count")
    put(
        "params.is_irreducible.accept_ratio",
        _ratio(c["params.is_irreducible.accepted"], calls["params.is_irreducible"]),
        "ratio",
    )
    put("params.generate_moduli.time_s", busy["params.generate_moduli"], "s")
    put("hashing.hash_poly.calls", calls["hashing.hash_poly"], "count")
    put("hashing.hash_poly.time_s", busy["hashing.hash_poly"], "s")
    put("hashing.family_build.time_s", busy["hashing.family_build"], "s")
    for fn in ("deal", "reconstruct"):
        put(f"scheme.{fn}.time_s", busy[f"scheme.{fn}"], "s")
        put(f"scheme.{fn}.self_s", own[f"scheme.{fn}"], "s")
    put("scheme.reconstruct.congruences", c["scheme.reconstruct.congruences"], "count")
    put("yang.yang_deal.time_s", busy["yang.yang_deal"], "s")
    put("yang.yang_attack.time_s", busy["yang.yang_attack"], "s")
    enum_time = busy["oracle.enumerate_consistent"]
    enumerated, accepted = c["oracle.states_enumerated"], c["oracle.states_accepted"]
    put("oracle.enumerate_consistent.time_s", enum_time, "s")
    put("oracle.states_enumerated", enumerated, "count")
    put("oracle.states_accepted", accepted, "count")
    put("oracle.accept_ratio", _ratio(accepted, enumerated), "ratio")
    put("oracle.states_per_s", _ratio(enumerated, enum_time), "1/s")
    put("oracle.count_consistent_tuples.time_s", busy["oracle.count_consistent_tuples"], "s")
    put("oracle.count_secret_preimages.time_s", busy["oracle.count_secret_preimages"], "s")
    put("fileio.load_params.time_s", busy["fileio.load_params"], "s")
    put("fileio.load_share.calls", calls["fileio.load_share"], "count")
    put("fileio.load_share.time_s", busy["fileio.load_share"], "s")
    for fn in ("save_share", "load_bulletin", "save_bulletin"):
        put(f"fileio.{fn}.time_s", busy[f"fileio.{fn}"], "s")
    for command in CLI_COMMANDS:
        put(f"cli.main.{command}.time_s", busy[f"cli.main.{command}"], "s")
    put("cli.self_s", cli_self, "s")
    for code in ("0", "5", "other"):
        put(f"cli.exit_codes.{code}", c[f"cli.exit_codes.{code}"], "count")
    return m
