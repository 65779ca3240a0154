import pytest

from obci import classify
from obci import fixtures as fx


def test_fixture_inventory():
    assert set(fx.ALGEBRAS) == {"exy", "ea", "mid3", "diamond", "chain4"}
    assert set(fx.MAPS) == {
        "exy-to-ea", "mid3-swap", "diamond-to-chain", "exy-id", "mid3-id",
    }


def test_validated_helper():
    assert fx.validated("exy") is not None
    assert fx.validated("ea") is not None
    for name in ("mid3", "diamond", "chain4"):
        assert fx.validated(name) is None


def test_fixture_text_round_trip():
    from obci import parse_algebra

    for name in fx.ALGEBRAS:
        assert parse_algebra(fx.fixture_text(name)) == fx.ALGEBRAS[name]
    with pytest.raises(KeyError):
        fx.fixture_text("nope")


def test_audit_reports_exactly_the_known_divergences():
    findings = fx.audit()
    by_key = {(f.subject, f.topic): f for f in findings}
    assert set(by_key) == {
        ("mid3", "valid"),
        ("diamond", "valid"),
        ("chain4", "valid"),
        ("exy-to-ea", "kernel"),
        ("mid3-swap", "classify"),
        ("mid3-id", "kernel"),
    }


def test_mid3_validity_finding_names_the_linking_axiom():
    f = {(f.subject, f.topic): f for f in fx.audit()}[("mid3", "valid")]
    assert "OBCI-5" in f.computed
    tags = {w[0] for w in f.witnesses}
    assert {"OBCI-1", "OBCI-2", "OBCI-3", "OBCI-5", "order-antisymmetric"} <= tags
    obci5 = next(w for w in f.witnesses if w[0] == "OBCI-5")
    assert len(obci5) == 3  # an explicit pair backs the verdict


def test_chain4_finding_carries_transitivity_witness():
    f = {(f.subject, f.topic): f for f in fx.audit()}[("chain4", "valid")]
    assert ("order-transitive", "1/3", "2/3", "1") in f.witnesses


def test_kernel_findings_carry_element_witnesses():
    by_key = {(f.subject, f.topic): f for f in fx.audit()}
    f = by_key[("exy-to-ea", "kernel")]
    assert f.stated == "{e}"
    assert f.computed == "{e,x}"
    assert ("only-computed", "x") in f.witnesses
    f = by_key[("mid3-id", "kernel")]
    assert f.stated == "{1,1/2}"
    assert ("only-stated", "1") in f.witnesses
    assert ("only-computed", "0") in f.witnesses


def test_swap_classification_finding():
    f = {(f.subject, f.topic): f for f in fx.audit()}[("mid3-swap", "classify")]
    assert f.stated == "hom=yes,omap=no"
    assert f.computed == "hom=no,omap=no"
    assert ("hom", "1", "1") in f.witnesses


def test_a_diverging_omap_verdict_names_only_the_first_omap_witness():
    # no stated o-map verdict diverges, so a synthetic claim takes that branch
    m = fx.MAPS["mid3-swap"]
    cls = classify(m)
    assert not cls.is_hom and not cls.is_omap
    f, = fx._audit([fx.StatedClaim("mid3-swap", "classify", (False, True))])
    assert (f.stated, f.computed) == ("hom=no,omap=yes", "hom=no,omap=no")
    first = tuple(m.source.labels[x] for x in cls.omap.witnesses[0])
    assert f.witnesses == (("omap", *first),)


def test_stated_claims_that_hold_produce_no_findings():
    subjects = {f.subject for f in fx.audit()}
    assert "exy" not in subjects
    assert "ea" not in subjects
    assert "diamond-to-chain" not in subjects
    assert "exy-id" not in subjects


def test_findings_for_filter():
    assert fx.findings_for("mid3", "valid")
    assert not fx.findings_for("exy", "valid")
    assert not fx.findings_for("mid3", "kernel")


def test_findings_for_audits_only_its_subject(monkeypatch):
    subjects = {c.subject for c in fx.STATED}
    audit = fx.audit()
    for subject in subjects | {"nope"}:
        for topic in fx._AUDITS:
            assert fx.findings_for(subject, topic) == tuple(
                f for f in audit if (f.subject, f.topic) == (subject, topic))
    audited = []

    def recording(topic, check):
        def audit_one(subject, stated):
            audited.append((subject, topic))
            return check(subject, stated)
        return audit_one

    for topic, check in list(fx._AUDITS.items()):
        monkeypatch.setitem(fx._AUDITS, topic, recording(topic, check))
    fx.findings_for("diamond-to-chain", "kernel")
    assert audited == [("diamond-to-chain", "kernel")]
