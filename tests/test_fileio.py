import pytest

from obci import parse_algebra, parse_map, serialize_algebra, serialize_map
from obci.fileio import ParseError, load_algebra
from obci.products import product_structure
from obci import fixtures as fx


def test_round_trip_all_bundled_algebras():
    for name, s in fx.ALGEBRAS.items():
        text = serialize_algebra(s)
        again = parse_algebra(text, source=name)
        assert again == s
        assert serialize_algebra(again) == text


def test_round_trip_all_bundled_maps():
    for name, m in fx.MAPS.items():
        text = serialize_map(m)
        again = parse_map(text, m.source, m.target, source=name)
        assert again == m
        assert serialize_map(again) == text


def test_round_trip_product_pair_labels():
    p = product_structure(fx.ALGEBRAS["exy"], fx.ALGEBRAS["ea"])
    assert parse_algebra(serialize_algebra(p)) == p


def test_comments_and_blank_lines_ignored():
    s = parse_algebra("""
# header comment
algebra tiny   # trailing comment

elements e a
unit e
op
e a   # the unit row
a e
order

e<=e a<=a
""")
    assert s.name == "tiny"
    assert s.labels == ("e", "a")


def test_order_pairs_may_span_lines():
    s = parse_algebra(
        "algebra t\nelements e a\nunit e\nop\ne a\na e\norder\ne<=e\na<=a\n")
    assert s.order == ((True, False), (False, True))


def test_parse_errors_carry_location():
    with pytest.raises(ParseError, match="row 1 needs 2"):
        parse_algebra("algebra t\nelements e a\nunit e\nop\ne a\na\norder\n")
    with pytest.raises(ParseError, match="unknown element 'z'"):
        parse_algebra("algebra t\nelements e a\nunit e\nop\ne z\na e\norder\n")
    with pytest.raises(ParseError, match="unit"):
        parse_algebra("algebra t\nelements e a\nunit q\nop\ne a\na e\norder\n")
    with pytest.raises(ParseError, match="pair"):
        parse_algebra(
            "algebra t\nelements e a\nunit e\nop\ne a\na e\norder\ne<a\n")
    with pytest.raises(ParseError, match="distinct"):
        parse_algebra("algebra t\nelements e e\nunit e\nop\ne e\ne e\norder\n")
    with pytest.raises(ParseError, match="missing 'op'"):
        parse_algebra("algebra t\nelements e\nunit e\n")


_ALGEBRA = "algebra t\nelements e a\nunit e\nop\ne a\na e\norder\ne<=e\n"


def _parse(source, text):
    """The algebra file parser for a .alg source, the map file parser (of a
    map from exy to ea) for a .map one."""
    if source.endswith(".alg"):
        return parse_algebra(text, source=source)
    return parse_map(text, fx.ALGEBRAS["exy"], fx.ALGEBRAS["ea"], source=source)


@pytest.mark.parametrize("source, text, line, message", [
    ("t.alg", _ALGEBRA.replace("algebra t", "algebra"), 1, "expected 'algebra <name>'"),
    ("t.alg", _ALGEBRA.replace("elements e a", "elements"), 2,
     "expected 'elements <l1> <l2> ...'"),
    ("t.alg", _ALGEBRA.replace("elements e a", "elements e a<=b"), 2,
     "label 'a<=b' may not contain '<='"),
    ("t.alg", _ALGEBRA.replace("unit e", "unit"), 3, "expected 'unit <label>'"),
    ("t.alg", _ALGEBRA.replace("op", "op e"), 4, "expected 'op' on its own line"),
    ("t.alg", _ALGEBRA.replace("order", "orders"), 7,
     "expected 'order' after the operation rows"),
    ("t.alg", _ALGEBRA.replace("e<=e", "e<=z"), 8, "unknown element in order pair 'e<=z'"),
    ("t.map", "# no map here\n", None, "empty map file"),
    ("t.map", "map m : exy -> ea\ne -> e\nx => e\n", 3, "expected '<a> -> <b>', got 'x => e'"),
])
def test_format_errors_name_source_line_and_cause(source, text, line, message):
    with pytest.raises(ParseError) as exc:
        _parse(source, text)
    where = source if line is None else f"{source}:{line}"
    assert (str(exc.value), exc.value.line) == (f"{where}: {message}", line)


def test_map_parse_errors():
    exy, ea = fx.ALGEBRAS["exy"], fx.ALGEBRAS["ea"]
    good = "map m : exy -> ea\ne -> e\nx -> e\ny -> a\n"
    assert parse_map(good, exy, ea).table == (0, 0, 1)
    with pytest.raises(ParseError, match="declares source"):
        parse_map(good.replace("exy ->", "other ->"), exy, ea)
    with pytest.raises(ParseError, match="declares target"):
        parse_map(good.replace("-> ea", "-> other"), exy, ea)
    with pytest.raises(ParseError, match="not total"):
        parse_map("map m : exy -> ea\ne -> e\n", exy, ea)
    with pytest.raises(ParseError, match="mapped twice"):
        parse_map(good + "e -> a\n", exy, ea)
    with pytest.raises(ParseError, match="unknown element"):
        parse_map(good.replace("y -> a", "y -> q"), exy, ea)
    with pytest.raises(ParseError, match="expected 'map"):
        parse_map("map m exy ea\n", exy, ea)


def test_load_algebra_from_disk(tmp_path):
    path = tmp_path / "t.alg"
    path.write_text(serialize_algebra(fx.ALGEBRAS["exy"]), encoding="utf-8")
    assert load_algebra(str(path)) == fx.ALGEBRAS["exy"]
