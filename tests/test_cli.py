import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from obci import (
    Mapping,
    Subset,
    SubstructureKind,
    kernel,
    load_algebra,
    parse_algebra,
    serialize_algebra,
    serialize_map,
)
from obci.cli import _fmt_witness, _parse_set, main
from obci import fixtures as fx
from obci import harness
from obci.core import check_axiom, relation_reports
from obci.products import product_structure
from obci.substructures import Atlas


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_valid_fixture(capsys):
    rc, out, _ = run(capsys, "validate", "fixture:exy")
    assert rc == 0
    assert "6/6 axioms hold" in out
    assert "cone: {e}" in out
    assert "FINDING" not in out


def test_validate_invalid_fixture_emits_finding(capsys):
    rc, out, _ = run(capsys, "validate", "fixture:mid3")
    assert rc == 1
    assert "2/6 axioms hold" in out
    assert "law OBCI-5: VIOLATED" in out
    assert "(0,1/2)" in out
    assert "FINDING: mid3 valid" in out


def test_validate_witness_cap_zero_still_reports_failures(capsys):
    rc, out, err = run(capsys, "--witness-cap", "0", "--format", "machine",
                       "validate", "fixture:mid3")
    assert (rc, err) == (1, "")
    for axiom in ("OBCI-1", "OBCI-2", "OBCI-3", "OBCI-5"):
        assert f"LAW {axiom} FAIL +more" in out
    assert "AXIOMS 2/6" in out


def test_validate_machine_format_is_stable(capsys):
    rc1, out1, _ = run(capsys, "--format", "machine", "validate", "fixture:chain4")
    rc2, out2, _ = run(capsys, "--format", "machine", "validate", "fixture:chain4")
    assert rc1 == rc2 == 1
    assert out1 == out2
    assert "LAW OBCI-5 FAIL (1/3,1) (0,1) (0,2/3)" in out1
    assert "AXIOMS 5/6" in out1
    assert "FINDING chain4 valid stated=valid" in out1


def test_validate_with_closure_repairs_chain4(capsys):
    # the stored pairs are only the covering relations of the chain; the
    # closure recovers the full chain and every axiom then holds
    rc, out, _ = run(capsys, "--format", "machine", "validate", "--closure",
                     "fixture:chain4")
    assert "NOTE closure-applied" in out
    assert rc == 0
    assert "CONE {1,2/3}" in out


def test_validate_with_closure_cannot_repair_mid3(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "validate", "--closure",
                     "fixture:mid3")
    assert rc == 1


def test_axioms_exit_code(capsys):
    rc, out, _ = run(capsys, "axioms", "fixture:exy")
    assert rc == 0
    assert out.count("law OBCI-") == 6


def test_substructure_verdicts(capsys):
    rc, out, _ = run(capsys, "substructure", "fixture:mid3",
                     "--set", "1,1/2", "--kind", "subalgebra")
    assert rc == 1
    assert "(1,1/2)" in out
    rc, _, _ = run(capsys, "substructure", "fixture:exy",
                   "--set", "e,x", "--kind", "filter")
    assert rc == 0
    rc, _, _ = run(capsys, "substructure", "fixture:exy",
                   "--set", "", "--kind", "subalgebra")
    assert rc == 0  # empty set is closed under the operation


def test_substructure_closed_kind_precondition(capsys):
    rc, out, err = run(capsys, "substructure", "fixture:exy",
                       "--set", "x,y", "--kind", "closed-filter")
    assert rc == 2
    assert "precondition error" in err
    assert "missing-unit" in out


def test_enumerate_substructures(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "enumerate-substructures",
                     "fixture:exy", "--kind", "ordered-filter")
    assert rc == 0
    assert out.splitlines() == [
        "SET {e}", "SET {e,x}", "SET {e,y}", "SET {e,x,y}", "COUNT 4",
    ]


def test_classify_fixture_map(capsys):
    rc, out, _ = run(capsys, "classify", "fixture:diamond-to-chain")
    assert rc == 1
    assert "law homomorphism: VIOLATED at (d,e)" in out
    assert "law o-map: holds" in out
    rc, out, _ = run(capsys, "--format", "machine", "classify", "fixture:exy-to-ea")
    assert rc == 0
    assert "CLASS hom=yes omap=yes ohom=yes" in out


def test_classify_swap_map_emits_finding(capsys):
    rc, out, _ = run(capsys, "classify", "fixture:mid3-swap")
    assert rc == 1
    assert "FINDING: mid3-swap classify" in out


def test_kernel_command_matches_stated_value(capsys):
    rc, out, _ = run(capsys, "kernel", "fixture:diamond-to-chain")
    assert rc == 0
    assert "ker = {1, e}" in out
    assert "FINDING" not in out
    rc, out, _ = run(capsys, "kernel", "fixture:diamond-to-chain", "--alt")
    assert "ker = {1, e}" in out


def test_kernel_command_flags_divergent_stated_value(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "kernel", "fixture:exy-to-ea")
    assert rc == 0
    assert "KER {e,x}" in out
    assert "FINDING exy-to-ea kernel stated={e} computed={e,x}" in out


def test_kernel_from_files(tmp_path, capsys):
    alg = tmp_path / "exy.alg"
    alg.write_text(fx.fixture_text("exy"), encoding="utf-8")
    ea = tmp_path / "ea.alg"
    ea.write_text(fx.fixture_text("ea"), encoding="utf-8")
    mp = tmp_path / "m.map"
    mp.write_text(fx.fixture_text("exy-to-ea"), encoding="utf-8")
    rc, out, _ = run(capsys, "kernel", str(mp), str(alg), str(ea))
    assert rc == 0
    assert "ker = {e, x}" in out


def test_product_command_writes_parseable_file(tmp_path, capsys):
    dest = tmp_path / "prod.alg"
    rc, out, _ = run(capsys, "product", "fixture:exy", "fixture:ea",
                     "-o", str(dest))
    assert rc == 0
    parsed = parse_algebra(dest.read_text(encoding="utf-8"))
    assert parsed.n == 6
    assert parsed.labels[0] == "(e,e)"


def test_set_names_product_elements(tmp_path, capsys):
    dest = tmp_path / "prod.alg"
    assert run(capsys, "product", "fixture:exy", "fixture:ea", "-o", str(dest))[0] == 0
    product = load_algebra(str(dest))
    for mask in range(1 << product.n):
        text = ",".join(Subset(product, mask).member_labels())
        assert _parse_set(product, text).mask == mask, text
    exy = fx.ALGEBRAS["exy"]
    assert _parse_set(exy, "e,,x") == Subset.from_labels(exy, ("e", "x"))
    rc, out, err = run(capsys, "--format", "machine", "substructure", str(dest),
                       "--set", "(e,e),(x,a)", "--kind", "filter")
    assert (rc, out, err) == (1, "LAW filter FAIL ((x,a),(e,a))\n", "")


@pytest.mark.parametrize("text, unmatched", [("(e,e),(q,a)", "(q,a)"),
                                             ("(e,e),(x", "(x"),
                                             ("q,(e,e)", "q,(e,e)")])
def test_set_with_an_unknown_element_is_a_usage_error(tmp_path, capsys, text, unmatched):
    dest = tmp_path / "prod.alg"
    run(capsys, "product", "fixture:exy", "fixture:ea", "-o", str(dest))
    rc, out, err = run(capsys, "substructure", str(dest), "--set", text,
                       "--kind", "filter")
    assert (rc, out) == (2, "")
    assert err == f"error: exyxea: unknown element {unmatched!r}\n"


def test_product_with_invalid_factor_fails(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "product",
                     "fixture:exy", "fixture:mid3")
    assert rc == 1
    assert "LAW direct-product-obci FAIL" in out


def test_pair_map_command(capsys):
    rc, out, _ = run(capsys, "pair-map", "fixture:exy-id", "fixture:exy-to-ea")
    assert rc == 0
    assert "o-homomorphism: yes" in out
    rc, out, _ = run(capsys, "pair-map", "fixture:mid3-swap", "fixture:exy-to-ea")
    assert rc == 1


def test_pair_map_command_from_files(tmp_path, capsys):
    paths = {}
    for name in ("exy", "ea", "exy-id", "exy-to-ea"):
        p = tmp_path / (name + (".map" if name.endswith("id") or "-to-" in name else ".alg"))
        p.write_text(fx.fixture_text(name), encoding="utf-8")
        paths[name] = str(p)
    rc, out, _ = run(capsys, "pair-map", paths["exy-id"], paths["exy-to-ea"],
                     paths["exy"], paths["exy"], paths["exy"], paths["ea"])
    assert rc == 0
    assert "o-homomorphism: yes" in out
    rc, _, err = run(capsys, "pair-map", paths["exy-id"], paths["exy-to-ea"],
                     paths["exy"])
    assert rc == 2


def test_verify_with_jobs(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "verify", "P-identities",
                     "--size", "2", "--jobs", "2")
    assert rc == 0
    assert "CLAIM P-identities VERIFIED" in out


# A sweep names one witness per counterexample, so the witness cap
# leaves its output alone.
_SWEEP_CAPS = {"": (), "-witness-cap-0": ("--witness-cap", "0"),
               "-exhaustive": ("--exhaustive",)}


@pytest.mark.parametrize("cap, scope, reference", [
    pytest.param(cap, scope, reference, id=f"scope{i}-{reference}{suffix}")
    for i, (scope, reference) in enumerate([
        (("--size", "3"), "verify_all_size3.machine.txt"),
        (("--fixtures",), "verify_all_fixtures.machine.txt"),
    ])
    for suffix, cap in _SWEEP_CAPS.items()
])
def test_verify_all_output_is_pinned(capsys, cap, scope, reference):
    # recorded at commit 430c534; exit 1 because the two bijection claims
    # are refuted
    rc, out, _ = run(capsys, "--format", "machine", *cap, "verify", "all", *scope)
    assert rc == 1
    assert out.encode() == (Path(__file__).parent / "data" / reference).read_bytes()


def test_filter_image_refutation_files_recheck(tmp_path, capsys):
    # T-filter-image holds over the size <= 4 classes but fails on the
    # first projection of n3-0 x n3-5, a 9-element source no sweep reaches
    data = Path(__file__).parent / "data"
    alg, alg5, prod, proj = (str(data / name) for name in (
        "n3-0.alg", "n3-5.alg", "n3-0xn3-5.alg", "n3-0xn3-5-to-n3-0.map"))

    def text(path):
        return Path(path).read_text(encoding="utf-8")

    # each file is the output of the command that made it
    blocks = run(capsys, "enumerate", "3", "--iso")[1].split("\n\n")
    assert (text(alg), text(alg5)) == (blocks[0] + "\n", blocks[5] + "\n")
    made = tmp_path / "product.alg"
    assert run(capsys, "product", alg, alg5, "-o", str(made))[0] == 0
    assert text(prod) == text(made)
    product, first = load_algebra(prod), load_algebra(alg)
    projection = Mapping(product, first, [x for x in range(3) for _ in range(3)],
                         name="n3-0xn3-5-to-n3-0")
    assert text(proj) == serialize_map(projection)
    for path in (alg, alg5, prod):
        assert run(capsys, "validate", path)[0] == 0
    rc, out, _ = run(capsys, "--format", "machine", "classify", proj, prod, alg)
    assert (rc, out.splitlines()[-1]) == (0, "CLASS hom=yes omap=yes ohom=yes")
    assert projection.is_surjective() and projection.preserves_unit()
    # F = {(e,e),(a,a)} is a filter whose image {e,a} is none
    assert run(capsys, "--format", "machine", "substructure", prod,
               "--set", "(e,e),(a,a)", "--kind", "filter")[:2] == (0, "LAW filter HOLDS\n")
    assert run(capsys, "--format", "machine", "substructure", alg,
               "--set", "e,a", "--kind", "filter")[:2] == (1, "LAW filter FAIL (a,b)\n")
    facts = harness._MapFacts(projection, kernel(projection).mask,
                              Atlas.of(product), Atlas.of(first))
    checked, skipped, found = harness._check(["T-filter-image"], [facts])["T-filter-image"]
    assert (checked, skipped, len(found)) == (52, 460, 4)
    assert found[0] == harness.Counterexample(
        ("X=n3-0xn3-5", "Y=n3-0", "map=n3-0xn3-5-to-n3-0", "F={(e,e),(a,a)}",
         "result={e,a}"), (1, 2))


def _substructure_transcript(capsys) -> str:
    """Every substructure and enumerate-substructures call on every
    fixture algebra, kind and subset: arguments, exit code, stdout, stderr."""
    parts = []
    for name, s in fx.ALGEBRAS.items():
        for kind in sorted(k.value for k in SubstructureKind):
            calls = [("enumerate-substructures", f"fixture:{name}", "--kind", kind)]
            calls += [("substructure", f"fixture:{name}", "--kind", kind, "--set",
                       ",".join(Subset(s, mask).member_labels()))
                      for mask in range(1 << s.n)]
            for argv in calls:
                rc, out, err = run(capsys, "--format", "machine", *argv)
                parts.append(f"$ {' '.join(argv)} -> {rc}\n{out}{err}")
    return "".join(parts)


def test_substructure_commands_are_pinned_on_every_fixture(capsys):
    # recorded at commit 1cc7880, before the six-branch dispatch became a lookup
    reference = Path(__file__).parent / "data" / "substructure_fixtures.machine.txt"
    assert _substructure_transcript(capsys) == reference.read_text(encoding="utf-8")


def _law_transcript(capsys) -> str:
    """Every law-printing command on the fixtures at caps 0, 1 and the
    default: arguments, exit code, stdout (only the LAW lines of
    `product`, which also dumps the product algebra), stderr."""
    algebras = [f"fixture:{name}" for name in fx.ALGEBRAS]
    maps = [f"fixture:{name}" for name in fx.MAPS]
    calls = [(cmd, *flag, a) for a in algebras
             for cmd, *flag in (("validate",), ("validate", "--closure"), ("axioms",))]
    calls += [(cmd, *flag, m) for m in maps
              for cmd, *flag in (("classify",), ("kernel",), ("kernel", "--alt"))]
    calls += [("pair-map", m1, m2) for m1 in maps for m2 in maps]
    calls += [("product", a1, a2) for a1 in algebras for a2 in algebras]
    parts = []
    for cap in (("--witness-cap", "0"), ("--witness-cap", "1"), ()):
        for argv in calls:
            rc, out, err = run(capsys, "--format", "machine", *cap, *argv)
            if argv[0] == "product":
                out = "".join(l for l in out.splitlines(True) if l.startswith("LAW "))
            parts.append(f"$ {' '.join((*cap, *argv))} -> {rc}\n{out}{err}")
    return "".join(parts)


def test_law_commands_are_pinned_on_every_fixture(capsys):
    # recorded at commit f957832, before the laws became table entries; the
    # only change since is " +more" on the 57 classify and pair-map LAW lines
    # whose witness list is cut at the cap
    reference = Path(__file__).parent / "data" / "law_commands.machine.txt"
    assert _law_transcript(capsys) == reference.read_text(encoding="utf-8")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    rc, out, err = run(capsys, "verify", "P-identities", "--size", "1",
                       "--jobs", jobs)
    assert rc == 2
    assert out == ""
    assert "--jobs must be at least 1" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_beyond_the_largest_carrier_starts_no_worker(monkeypatch, capsys, jobs):
    def no_process(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "Process", no_process)
    rc, out, err = run(capsys, "verify", "all", "--size", "5", "--jobs", jobs)
    assert (rc, out, err) == (2, "", "error: carrier size 5 beyond the supported maximum 4\n")


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "0"), "enumerate: n must be at least 1, got 0"),
    (("verify", "all", "--size", "0"), "verify: --size must be at least 1, got 0"),
    (("verify", "all", "--size", "-1"), "verify: --size must be at least 1, got -1"),
    (("search", "hom-not-omap", "--size", "0"), "search: --size must be at least 1, got 0"),
    (("--witness-cap", "-1", "classify", "fixture:mid3-swap"),
     "classify: --witness-cap must be at least 0, got -1"),
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv, message):
    # unchecked, these gave a traceback, a vacuous VERIFIED sweep,
    # "RESULT none", and laws reading FAIL +more at a cap of -1
    rc, out, err = run(capsys, "--format", "machine", *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [("--witness-cap", "-1", "--exhaustive"),
                                   ("--exhaustive", "--witness-cap", "-1")])
def test_negative_witness_cap_beside_exhaustive_is_a_usage_error(capsys, flags):
    # the range is read before --exhaustive lifts the cap
    rc, out, err = run(capsys, *flags, "validate", "fixture:exy")
    assert (rc, out, err) == (
        2, "", "error: validate: --witness-cap must be at least 0, got -1\n")


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--size", "2", "--fixtures"),
    # an explicit --size equal to the default is refused too
    ("verify", "all", "--size", "3", "--fixtures"),
    ("verify", "all", "--fixtures", "--size", "3"),
    ("search", "hom-not-omap", "--fixtures", "--size", "2"),
])
def test_size_beside_fixtures_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, "--format", "machine", *argv)
    assert (rc, out, err) == (
        2, "", f"error: {argv[0]}: --size and --fixtures exclude each other\n")


def test_pair_map_refuses_products_beyond_the_budget(tmp_path, capsys):
    # the identity of a 9-element product, paired with itself: 81 elements
    alg = str(Path(__file__).parent / "data" / "n3-0xn3-5.alg")
    source = load_algebra(alg)
    ident = tmp_path / "id.map"
    ident.write_text(serialize_map(Mapping(source, source, range(source.n), "id")),
                     encoding="utf-8")
    rc, out, err = run(capsys, "pair-map", str(ident), str(ident), alg, alg, alg, alg)
    assert (rc, out, err) == (
        2, "", "error: product carrier size 81 exceeds the budget of 64\n")


# The first witness of each morphism law, by command.
_FIRST_WITNESSES = {"classify": ("(1,1)", "(1,1/2)"),
                    "pair-map": ("((1,e),(1,e))", "((1,e),(1/2,e))")}


@pytest.mark.parametrize("fmt", ["machine", "text"])
@pytest.mark.parametrize("cap", ["0", "1"])
@pytest.mark.parametrize("argv", [("classify", "fixture:mid3-swap"),
                                  ("pair-map", "fixture:mid3-swap", "fixture:exy-id")])
def test_morphism_laws_cut_at_the_cap_end_in_more(capsys, fmt, cap, argv):
    rc, out, _ = run(capsys, "--format", fmt, "--witness-cap", cap, *argv)
    expected = []
    for law, first in zip(("homomorphism", "o-map"), _FIRST_WITNESSES[argv[0]]):
        if fmt == "machine":
            expected.append(f"LAW {law} FAIL{'' if cap == '0' else ' ' + first} +more")
        else:
            expected.append(f"law {law}: VIOLATED{'' if cap == '0' else ' at ' + first} +more")
    assert rc == 1
    assert [l for l in out.splitlines() if l.lower().startswith("law ")] == expected


def test_nested_witness_prints_each_label_tuple():
    # A refuted T-product-kernel-projection names its two projected kernels
    # as label tuples, each printed as a parenthesized witness of its own.
    assert _fmt_witness((("e", "a"), ("e",)), None) == "((e,a),(e))"


def test_enumerate_command(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "enumerate", "2",
                     "--count-only")
    assert rc == 0
    assert out.strip() == "COUNT 2"
    rc, out, _ = run(capsys, "--format", "machine", "enumerate", "3", "--iso",
                     "--count-only")
    assert out.strip() == "COUNT 6"


def test_enumerate_dump_is_parseable(capsys):
    rc, out, _ = run(capsys, "enumerate", "2")
    assert rc == 0
    blocks = [b for b in out.split("\n\n") if b.startswith("algebra")]
    assert len(blocks) == 2
    assert parse_algebra(blocks[0]).name == "n2-0"


def test_verify_single_claim(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "verify", "T-kernel-filter",
                     "--size", "2")
    assert rc == 0
    assert "CLAIM T-kernel-filter VERIFIED" in out


def test_verify_reports_counterexamples_and_finding(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "verify",
                     "T-ordfilter-bijection", "--size", "2")
    assert rc == 1
    assert "CLAIM T-ordfilter-bijection FAILED" in out
    assert "CE X=n2-0" in out
    assert "FINDING claim-T-ordfilter-bijection sweep stated=holds" in out


def test_verify_fixture_scope(capsys):
    rc, out, _ = run(capsys, "verify", "T-kernel-filter", "--fixtures")
    assert rc == 0
    assert "checked=2" in out


def test_verify_unknown_claim(capsys):
    rc, _, err = run(capsys, "verify", "T-bogus")
    assert rc == 2
    assert "unknown claim" in err


def test_search_command(capsys):
    rc, out, _ = run(capsys, "--format", "machine", "search", "omap-not-hom",
                     "--size", "2")
    assert rc == 0
    assert out.startswith("RESULT found X=n1-0 Y=n2-0 map=(1)")
    rc, out, _ = run(capsys, "--format", "machine", "search", "hom-not-omap",
                     "--size", "2")
    assert rc == 1
    assert out.strip() == "RESULT none"
    rc, out, _ = run(capsys, "search", "omap-not-hom", "--fixtures")
    assert rc == 0
    assert "diamond-to-chain" in out


def test_fixtures_list_and_dump(capsys):
    rc, out, _ = run(capsys, "fixtures", "list")
    assert rc == 0
    assert "exy algebra" in out
    assert "exy-to-ea map exy ea" in out
    rc, out, _ = run(capsys, "fixtures", "dump", "exy")
    assert rc == 0
    assert parse_algebra(out) == fx.ALGEBRAS["exy"]
    rc, _, err = run(capsys, "fixtures", "dump", "nope")
    assert rc == 2


def test_missing_file_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "validate", "/no/such/file.alg")
    assert rc == 2
    rc, _, err = run(capsys, "validate", "fixture:nope")
    assert rc == 2


def _unreadable(tmp_path, what):
    """A path whose reading or writing fails: a directory, or a file of
    bytes that are not UTF-8."""
    if what == "directory":
        return str(tmp_path)
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"algebra \xff\xfe\n")
    return str(bad)


@pytest.mark.parametrize("what", ["directory", "non-utf8"])
@pytest.mark.parametrize("argv", [
    ("validate", "{}"),
    ("classify", "{}", "{alg}", "{alg}"),
    ("classify", "{map}", "{}", "{alg}"),
    ("kernel", "{map}", "{alg}", "{}"),
])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, what, argv):
    alg = tmp_path / "exy.alg"
    alg.write_text(fx.fixture_text("exy"), encoding="utf-8")
    mp = tmp_path / "m.map"
    mp.write_text(fx.fixture_text("exy-id"), encoding="utf-8")
    path = _unreadable(tmp_path, what)
    rc, _, err = run(capsys, *(a.format(path, map=mp, alg=alg) for a in argv))
    assert rc == 2
    assert err.startswith("error: ") and path in err
    assert "Traceback" not in err


def test_unwritable_product_output_is_a_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, "product", "fixture:exy", "fixture:ea",
                     "-o", str(tmp_path))
    assert rc == 2
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_unwritable_product_output_prints_no_verdict(tmp_path, capsys, fmt):
    # a directory as OUT: the file is opened before the LAW line is printed
    rc, out, err = run(capsys, "--format", fmt, "product", "fixture:exy",
                       "fixture:ea", "-o", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ")


def _counting(monkeypatch, module, name):
    """Count calls of `module.name` through every obci module binding it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("obci") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("argv, module, name, expected", [
    # six reports printed, six more for the audit's own default-cap pass
    (("validate", "fixture:exy"), "core", "check_axiom", 12),
    (("validate", "fixture:mid3"), "core", "check_axiom", 12),
    (("classify", "fixture:exy-to-ea"), "morphisms", "kernel", 0),
    (("kernel", "fixture:exy-to-ea"), "morphisms", "classify", 0),
])
def test_each_command_audits_only_what_it_prints(monkeypatch, capsys, argv, module,
                                                  name, expected):
    calls = _counting(monkeypatch, importlib.import_module(f"obci.{module}"), name)
    run(capsys, *argv)
    assert len(calls) == expected


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_exhaustive_flag(capsys):
    rc, out, _ = run(capsys, "--exhaustive", "--format", "machine", "axioms",
                     "fixture:mid3")
    assert rc == 1
    assert "+more" not in out
    law_lines = [l for l in out.splitlines() if l.startswith("LAW")]
    assert sum(l.count("(") for l in law_lines) == 26 + 8 + 2 + 5


def test_library_lists_every_witness_and_the_cli_caps_at_32(tmp_path, capsys):
    p = product_structure(fx.ALGEBRAS["diamond"], fx.ALGEBRAS["chain4"])
    transitive = relation_reports(p)[2]
    linking = check_axiom(p, "OBCI-5")
    assert (transitive.law, len(transitive.witnesses), transitive.truncated) == \
        ("order-transitive", 48, False)
    assert (len(linking.witnesses), linking.truncated) == (34, False)

    path = tmp_path / "p.alg"
    path.write_text(serialize_algebra(p), encoding="utf-8")

    def linking_line(*flags):
        rc, out, _ = run(capsys, *flags, "--format", "machine", "axioms", str(path))
        assert rc == 1
        [line] = [l for l in out.splitlines() if l.startswith("LAW OBCI-5 ")]
        return line.split()[3:]

    capped = linking_line()
    assert (len(capped), capped[-1]) == (33, "+more")
    every = linking_line("--exhaustive")
    assert (len(every), every[:32]) == (34, capped[:32])


def _map_file(tmp_path):
    path = tmp_path / "m.map"
    path.write_text(fx.fixture_text("exy-to-ea").replace("map exy-to-ea", "map copy"),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (("classify", "{map}"), "{map}: map files need explicit <src> and <dst> algebra files"),
    (("search", "no-such-query"), "search: unknown search query 'no-such-query'"),
    (("fixtures", "dump"), "fixtures: fixtures dump needs a fixture name"),
])
def test_usage_errors_print_one_error_line(tmp_path, capsys, argv, message):
    mp = _map_file(tmp_path)
    rc, out, err = run(capsys, *(a.format(map=mp) for a in argv))
    assert (rc, out, err) == (2, "", f"error: {message.format(map=mp)}\n")


def test_renamed_copies_of_fixtures_are_not_audited(tmp_path, capsys):
    # a file is audited only when it equals the bundled fixture of its name
    alg = tmp_path / "mid3.alg"
    alg.write_text(fx.fixture_text("mid3").replace("algebra mid3", "algebra copy"),
                   encoding="utf-8")
    rc, out, _ = run(capsys, "--format", "machine", "validate", str(alg))
    assert (rc, "AXIOMS 2/6" in out, "FINDING" in out) == (1, True, False)

    endpoints = []
    for name in ("exy", "ea"):
        endpoints.append(tmp_path / f"{name}.alg")
        endpoints[-1].write_text(fx.fixture_text(name), encoding="utf-8")
    rc, out, _ = run(capsys, "--format", "machine", "kernel", _map_file(tmp_path),
                     *map(str, endpoints))
    assert (rc, out) == (0, "KER {e,x}\n")


_LEAN_IMPORT = """
import json, sys
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
before = set(sys.modules)
import obci.cli
added = set(sys.modules) - before
read_at_import = [p for p in opened if p.endswith((".alg", ".map"))]
from obci import fixtures
algebras, maps = len(fixtures.ALGEBRAS), len(fixtures.MAPS)
print(json.dumps({"machinery": sorted(added & {"dataclasses", "inspect"}),
                  "read_at_import": read_at_import, "algebras": algebras, "maps": maps,
                  "read_on_use": sum(p.endswith((".alg", ".map")) for p in opened)}))
"""


def test_cli_import_skips_dataclasses_and_reads_no_fixture():
    # a fresh interpreter, as a user of the command starts it
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _LEAN_IMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {"machinery": [], "read_at_import": [],
                               "algebras": 5, "maps": 5, "read_on_use": 10}
