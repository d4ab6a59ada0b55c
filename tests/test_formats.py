from fractions import Fraction

import pytest

from miqpcert.certifier import find_certificate
from miqpcert.formats import (
    InstanceFormatError,
    maxcut_instance,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from helpers import vec

SAMPLE = """\
# quadratic over a boxed line
1 1
-1
0
1
2
1
-1
5 0
"""


def test_instance_round_trip_bit_exact():
    inst = parse_instance(SAMPLE)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert serialize_instance(again) == text
    assert again == inst


def test_instance_comments_and_rational_forms():
    text = "2 1\n0 1/2\n1/2 0  # symmetric\n-3 2/3\n-1/7\n1\n1 1\n9/2\n"
    inst = parse_instance(text)
    assert inst.quad.h.entries[0][1] == Fraction(1, 2)
    assert inst.quad.d == Fraction(-1, 7)
    assert inst.polyhedron.b[0] == Fraction(9, 2)


def test_instance_errors_carry_line_numbers():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("1 1\nnope\n0\n0\n0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("1 2\n0\n0\n0\n0\n")
    assert "p=2" in str(err.value)


NON_GRAMMAR_SPELLINGS = (
    "1_000", "1e3", "1.5", "+3", "٣", "3/-4", "1/2/3", "0x10", "inf", "nan",
    # non-ASCII digits that str.isdigit or int() accept, and signs without digits:
    # the ASCII-integer shortcut must leave each to the grammar
    "²", "３", "-٣", "-", "--3", "-+3",
)


def test_rational_tokens_follow_one_grammar():
    # -?[0-9]+(/[0-9]+)? in ASCII, after the strip and the typeset minus:
    # Fraction(str) takes some of the spellings below, and which depends on
    # the Python version
    text = "2 0\n−1 0\n0 -12/8\n0 0\n0\n1\n1 1\n9\n"
    assert parse_instance(text).quad.h.entries[0][0] == -1
    assert parse_instance(text).quad.h.entries[1][1] == Fraction(-3, 2)
    # integer spellings the ASCII-integer shortcut reads, and ones it leaves
    # to the grammar: each keeps its value
    inst = parse_instance("3 0\n0 0 0\n0 0 0\n0 0 0\n−3 -0 007\n-300\n1\n1 2 3\n−12/4\n")
    assert inst.quad.c.entries == (-3, 0, 7) and inst.quad.d == -300 and inst.polyhedron.b[0] == -3
    assert all(type(v) is Fraction for v in (*inst.quad.c, inst.quad.d, *inst.polyhedron.a.entries[0]))
    for bad in NON_GRAMMAR_SPELLINGS + ("1/0",):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(f"# c holds the token\n1 0\n0\n{bad}\n0\n0\n")
        assert "line 4" in str(err.value) and "bad rational" in str(err.value)
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(f"1 0\n0\n0\n0\n1\n1\n{bad}\n")
        assert "line 7" in str(err.value)
    for bad in ("+1", "١", "1_0", "1.0", "1/1"):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(f"{bad} 0\n0\n0\n0\n0\n")
        assert "line 1" in str(err.value)
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(f"1 0\n0\n0\n0\n{bad}\n1\n1\n")
        assert "line 5" in str(err.value)


def test_certificate_point_follows_rational_grammar():
    tag = "orthant=all;branch=negative-ray;fiber=-;family=-;piece=-;ray=-;step=0;shift=-;bound=-"
    assert parse_certificate(f"x -1/2 3\ntrace {tag}\nsize 5\n").point == vec(Fraction(-1, 2), 3)
    for bad in NON_GRAMMAR_SPELLINGS:
        with pytest.raises(InstanceFormatError) as err:
            parse_certificate(f"\nx 1 {bad}\ntrace {tag}\nsize 5\n")
        assert "line 2" in str(err.value) and "bad rational" in str(err.value)


def test_asymmetric_h_names_entries():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("2 0\n0 1\n2 0\n0 0\n0\n0\n")
    message = str(err.value)
    assert "H[0][1]=1" in message and "H[1][0]=2" in message


def test_missing_rows_reported():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("2 0\n0 0\n")
    assert "row 1 of H" in str(err.value)


def test_certificate_round_trip_bit_exact():
    inst = parse_instance(SAMPLE)
    cert = find_certificate(inst)
    text = serialize_certificate(cert)
    again = parse_certificate(text)
    assert serialize_certificate(again) == text
    assert again == cert


def test_certificate_parse_errors():
    with pytest.raises(InstanceFormatError):
        parse_certificate("x 1\ntrace orthant=all;branch=negative-ray\n")
    with pytest.raises(InstanceFormatError):
        parse_certificate("x 1\ntrace nonsense\nsize 5\n")
    # trace text that would not be written back as it reads
    tag = "orthant=+-;branch=negative-ray;fiber=-;family=-;piece=-;ray=-;step=0;shift=-;bound=-"
    assert parse_certificate(f"x 1 2\ntrace {tag}\nsize 5\n").trace.tag() == tag
    for bad in (
        tag + ";extra=9",
        tag.replace("branch=negative-ray", "branch=bogus"),
        tag.replace("orthant=+-", "orthant=x-"),
        tag.replace("orthant=+-", "orthant="),
        tag.replace(";step=0", ""),
        tag.replace("fiber=-;family=-", "family=-;fiber=-"),
        tag.replace("step=0", "step=+0"),
        tag.replace("step=0", "step=00"),
        tag.replace("shift=-", "shift=1_0"),
    ):
        with pytest.raises(InstanceFormatError) as err:
            parse_certificate(f"# header\nx 1 2\ntrace {bad}\nsize 5\n")
        assert "line 3" in str(err.value)
    for size in ("\u00b2", "+5", "-1", "5.0"):
        with pytest.raises(InstanceFormatError) as err:
            parse_certificate(f"x 1 2\ntrace {tag}\n\nsize {size}\n")
        assert "line 4" in str(err.value)


def test_certificate_rejects_repeated_and_unknown_keys():
    tag = "trace orthant=all;branch=negative-ray;fiber=-;family=-;piece=-;ray=-;step=0;shift=-;bound=-\n"
    assert parse_certificate("x 5\n" + tag + "size 7\n").point == vec(5)
    with pytest.raises(InstanceFormatError) as err:
        parse_certificate("x 0\nx 5\n" + tag + "size 7\n")
    assert "line 2" in str(err.value) and "duplicate 'x'" in str(err.value)
    with pytest.raises(InstanceFormatError) as err:
        parse_certificate("x 5\n" + tag + "size 7\nsize 7\n")
    assert "line 4" in str(err.value)
    with pytest.raises(InstanceFormatError) as err:
        parse_certificate("x 5\n" + tag + "size 7\nbogus 1\n")
    assert "line 4" in str(err.value) and "bogus" in str(err.value)


def test_maxcut_encoding_matches_cut_counting():
    edges = [(0, 1), (1, 2), (0, 2)]
    inst = maxcut_instance(edges, 2, 3)
    assert inst.integer_count == 3
    # Q(x) = k - sum over edges of (x_i + x_j - 2 x_i x_j)
    from miqpcert.qp import eval_quadratic

    for mask in range(8):
        x = vec(*[(mask >> i) & 1 for i in range(3)])
        cut = sum(1 for a, b in edges if ((mask >> a) & 1) != ((mask >> b) & 1))
        assert eval_quadratic(inst.quad, x) == 2 - cut


def test_maxcut_rejects_bad_input():
    with pytest.raises(ValueError):
        maxcut_instance([(0, 0)], 1, 2)
    with pytest.raises(ValueError):
        maxcut_instance([(0, 5)], 1, 2)
    with pytest.raises(ValueError):
        maxcut_instance([], -1, 2)
    with pytest.raises(ValueError):
        maxcut_instance([], 0, 0)


def test_empty_graph_feasible_at_zero():
    inst = maxcut_instance([], 0, 1)
    cert = find_certificate(inst)
    assert cert is not None and cert.point == vec(0)
