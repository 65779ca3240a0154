import pytest

from obci import parse_algebra
from obci.cli import main
from obci import fixtures as fx


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


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, jobs):
    rc, out, err = run(capsys, "verify", "P-identities", "--size", "1",
                       "--jobs", jobs)
    assert rc == 2
    assert out == ""
    assert "--jobs must be at least 1" in err


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
