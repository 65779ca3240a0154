"""Bundled example structures and maps, with a stated-claims audit.

The fixture files under data/ encode every table and relation exactly as
stated in the source material they were taken from, including the ones
whose stated properties do not survive definitional checking.  They
are read and parsed on the first use of ALGEBRAS or MAPS, not at import.
STATED records what the source asserts about each fixture; `audit`
recomputes everything and returns a Finding for each divergence,
witness-backed.  Findings are reported, never "fixed": the stored tables
and relations are the ground truth being audited.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .core import (
    RawStructure,
    ValidatedAlgebra,
    axiom_reports,
    relation_reports,
    validate,
)
from .fileio import parse_algebra, parse_map, serialize_algebra, serialize_map
from .morphisms import Mapping, classify, kernel

_ALGEBRA_FILES = ("exy", "ea", "mid3", "diamond", "chain4")
_MAP_FILES = (
    ("exy-to-ea", "exy", "ea"),
    ("mid3-swap", "mid3", "mid3"),
    ("diamond-to-chain", "diamond", "chain4"),
    ("exy-id", "exy", "exy"),
    ("mid3-id", "mid3", "mid3"),
)


def _read(name: str) -> str:
    from importlib import resources  # imports `inspect` from Python 3.12 on

    return resources.files("obci.data").joinpath(name).read_text(encoding="utf-8")


@cache
def _load() -> tuple[dict[str, RawStructure], dict[str, Mapping]]:
    """(ALGEBRAS, MAPS), read and parsed once."""
    algebras: dict[str, RawStructure] = {}
    for name in _ALGEBRA_FILES:
        algebras[name] = parse_algebra(_read(f"{name}.alg"), source=f"{name}.alg")
    maps: dict[str, Mapping] = {}
    for name, src, dst in _MAP_FILES:
        maps[name] = parse_map(_read(f"{name}.map"), algebras[src], algebras[dst],
                               source=f"{name}.map")
    return algebras, maps


def __getattr__(name: str):
    """ALGEBRAS (name -> RawStructure) and MAPS (name -> Mapping), in file
    order, loaded on first use."""
    if name == "ALGEBRAS":
        return _load()[0]
    if name == "MAPS":
        return _load()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def fixture_text(name: str) -> str:
    """Canonical file text for a fixture (algebra or map)."""
    algebras, maps = _load()
    if name in algebras:
        return serialize_algebra(algebras[name])
    if name in maps:
        return serialize_map(maps[name])
    raise KeyError(f"unknown fixture {name!r}")


def validated(name: str) -> ValidatedAlgebra | None:
    """ValidatedAlgebra for a fixture, or None when the axioms fail."""
    result = validate(_load()[0][name])
    return result if isinstance(result, ValidatedAlgebra) else None


# --- stated claims and the audit -------------------------------------------

class StatedClaim(NamedTuple):
    subject: str       # fixture or map name
    topic: str         # "valid", "kernel", "classify"
    stated: object     # bool | frozenset[str] | (bool, bool)


class Finding(NamedTuple):
    """One divergence between a stated property and the computed verdict.

    Witnesses are tuples of label strings, tagged with the violated law.
    """

    subject: str
    topic: str
    stated: str
    computed: str
    witnesses: tuple[tuple[str, ...], ...]


STATED: tuple[StatedClaim, ...] = (
    StatedClaim("exy", "valid", True),
    StatedClaim("ea", "valid", True),
    StatedClaim("mid3", "valid", True),
    StatedClaim("diamond", "valid", True),
    StatedClaim("chain4", "valid", True),
    StatedClaim("exy-to-ea", "classify", (True, True)),
    StatedClaim("exy-to-ea", "kernel", frozenset({"e"})),
    StatedClaim("mid3-swap", "classify", (True, False)),
    StatedClaim("diamond-to-chain", "classify", (False, True)),
    StatedClaim("diamond-to-chain", "kernel", frozenset({"1", "e"})),
    StatedClaim("exy-id", "kernel", frozenset({"e"})),
    StatedClaim("mid3-id", "kernel", frozenset({"1", "1/2"})),
)


def _labels(s: RawStructure, witness: tuple) -> tuple[str, ...]:
    return tuple(w if isinstance(w, str) else s.labels[w] for w in witness)


def _set_repr(labels) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def _audit_valid(name: str, stated: bool) -> Finding | None:
    s = _load()[0][name]
    failing = [r for r in axiom_reports(s) if not r.holds]
    order_failing = [r for r in relation_reports(s) if not r.holds]
    ok = not failing
    if ok == stated and not order_failing:
        return None
    witnesses = []
    for r in failing + order_failing:
        witnesses.append((r.law, *_labels(s, r.witnesses[0])))
    computed = ("valid" if ok else
                "fails:" + ",".join(r.law for r in failing + order_failing))
    return Finding(name, "valid", "valid" if stated else "invalid",
                   computed, tuple(witnesses))


def _audit_kernel(name: str, stated: frozenset) -> Finding | None:
    m = _load()[1][name]
    computed = set(kernel(m).member_labels())
    if computed == set(stated):
        return None
    witnesses = []
    for l in sorted(set(stated) - computed):
        witnesses.append(("only-stated", l))
    for l in sorted(computed - set(stated)):
        witnesses.append(("only-computed", l))
    return Finding(name, "kernel", _set_repr(stated), _set_repr(computed),
                   tuple(witnesses))


def _audit_classify(name: str, stated: tuple[bool, bool]) -> Finding | None:
    m = _load()[1][name]
    cls = classify(m)
    if (cls.is_hom, cls.is_omap) == stated:
        return None
    witnesses = []
    if cls.is_hom != stated[0] and cls.hom.witnesses:
        witnesses.append(("hom", *_labels(m.source, cls.hom.witnesses[0])))
    if cls.is_omap != stated[1] and cls.omap.witnesses:
        witnesses.append(("omap", *_labels(m.source, cls.omap.witnesses[0])))

    def word(pair):
        return f"hom={'yes' if pair[0] else 'no'},omap={'yes' if pair[1] else 'no'}"

    return Finding(name, "classify", word(stated), word((cls.is_hom, cls.is_omap)),
                   tuple(witnesses))


_AUDITS = {"valid": _audit_valid, "kernel": _audit_kernel, "classify": _audit_classify}


def _audit(claims) -> tuple[Finding, ...]:
    findings = (_AUDITS[c.topic](c.subject, c.stated) for c in claims)
    return tuple(f for f in findings if f is not None)


def audit() -> tuple[Finding, ...]:
    """Recompute every stated claim; one Finding per divergence."""
    return _audit(STATED)


def findings_for(subject: str, topic: str) -> tuple[Finding, ...]:
    """The audit of one subject's stated claims on one topic only."""
    return _audit(c for c in STATED if c.subject == subject and c.topic == topic)
