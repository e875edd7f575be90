"""Behaviour every value class shares: equality, hashing, repr, immutability,
pattern matching, pickling and copying."""

import copy
import pickle

import pytest

import hypalg
from hypalg import (S1, S2, ColumnSpinor, EvenComponents, FourVector, HMat2,
                    HyperComplex, LorentzParams, Multivector, OddComponents,
                    Rotor, Spinor, to_matrix)
from hypalg.cli import BinOp, parse

from conftest import slot_set

H = HyperComplex
HC0 = "HyperComplex(x=0.0, y=0.0, v=0.0, w=0.0)"
HC1 = "HyperComplex(x=1.0, y=0.0, v=0.0, w=0.0)"

# (build, golden repr, __match_args__, stored fields).  Each build makes a
# fresh value, so two builds are equal values in distinct objects.
CASES = {
    "HyperComplex": (
        lambda: H(1.0, -2.0, 0.5, 3.0),
        "HyperComplex(x=1.0, y=-2.0, v=0.5, w=3.0)",
        ("x", "y", "v", "w"), ("p", "m")),
    # the views round, so a pickle has to keep the stored pair
    "HyperComplex-inexact": (
        lambda: H(0.1, 0.0, 0.2, 0.0),
        "HyperComplex(x=0.10000000000000002, y=0.0, v=0.2, w=0.0)",
        ("x", "y", "v", "w"), ("p", "m")),
    "Multivector": (
        lambda: Multivector(H(1.0), z2=H(0.0, 0.0, 2.0)),
        f"Multivector(z0={HC1}, z1={HC0}, "
        f"z2=HyperComplex(x=0.0, y=0.0, v=2.0, w=0.0), z3={HC0})",
        ("z0", "z1", "z2", "z3"), ("p", "m", "z0", "z3")),
    # built by an operation, which fills the stored parts without __init__
    "Multivector-product": (
        lambda: S1 * S2,
        f"Multivector(z0={HC0}, z1={HC0}, z2={HC0}, "
        "z3=HyperComplex(x=0.0, y=1.0, v=0.0, w=0.0))",
        ("z0", "z1", "z2", "z3"), ("p", "m", "z0", "z3")),
    "FourVector": (
        lambda: FourVector(1.0, -2.0, 0.5, 3.0),
        "FourVector(x0=1.0, x1=-2.0, x2=0.5, x3=3.0)",
        ("x0", "x1", "x2", "x3"), ("x0", "x3")),
    "LorentzParams": (
        lambda: LorentzParams(1, 2, 3),
        "LorentzParams(phi=1, theta=2, xi=3)",
        ("phi", "theta", "xi"), ("phi", "xi")),
    "Rotor": (
        lambda: Rotor(Multivector(H(1.0))),
        f"Rotor(value=Multivector(z0={HC1}, z1={HC0}, z2={HC0}, z3={HC0}))",
        ("value",), ("value",)),
    "Spinor": (
        lambda: Spinor(Multivector(z3=H(0.0, 0.5))),
        f"Spinor(value=Multivector(z0={HC0}, z1={HC0}, z2={HC0}, "
        "z3=HyperComplex(x=0.0, y=0.5, v=0.0, w=0.0)))",
        ("value",), ("value",)),
    "EvenComponents": (
        lambda: EvenComponents(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        "EvenComponents(s=1.0, b32=2.0, b13=3.0, b21=4.0, b10=5.0, b20=6.0, "
        "b30=7.0, p=8.0)",
        ("s", "b32", "b13", "b21", "b10", "b20", "b30", "p"), ("s", "p")),
    "OddComponents": (
        lambda: OddComponents((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)),
        "OddComponents(v=(1.0, 2.0, 3.0, 4.0), eta=(5.0, 6.0, 7.0, 8.0))",
        ("v", "eta"), ("v", "eta")),
    "HMat2": (
        lambda: to_matrix(Multivector(H(1.0), H(0.0, 2.0))),
        f"HMat2(pauli=Multivector(z0={HC1}, "
        f"z1=HyperComplex(x=0.0, y=2.0, v=0.0, w=0.0), z2={HC0}, z3={HC0}))",
        ("m11", "m12", "m21", "m22"), ("pauli",)),
    # built from entries: the stored multivector is rounded, and a pickle has
    # to keep it as it is
    "HMat2-entries": (
        lambda: HMat2(H(0.1), H(0.0, 0.3), H(0.7), H(0.0, 0.0, 0.2)),
        "HMat2(pauli=Multivector("
        "z0=HyperComplex(x=0.05000000000000001, y=0.0, v=0.1, w=0.0), "
        "z1=HyperComplex(x=0.35, y=0.15, v=0.0, w=0.0), "
        "z2=HyperComplex(x=-0.15, y=-0.35, v=0.0, w=0.0), "
        "z3=HyperComplex(x=0.05000000000000001, y=0.0, v=-0.1, w=0.0)))",
        ("m11", "m12", "m21", "m22"), ("pauli",)),
    "ColumnSpinor": (
        lambda: ColumnSpinor(H(1.0), H(0.0, 0.0, -1.0)),
        f"ColumnSpinor(c1={HC1}, "
        "c2=HyperComplex(x=0.0, y=0.0, v=-1.0, w=0.0))",
        ("c1", "c2"), ("c1", "c2")),
    "BinOp": (
        lambda: parse("1+2"),
        "BinOp(op='+', lhs=Num(value=1.0, pos=0), rhs=Num(value=2.0, pos=2), "
        "pos=1)",
        ("op", "lhs", "rhs", "pos"), ("op", "lhs", "pos")),
    "Neg": (
        lambda: parse("-dot(e0, 2*e1)"),
        "Neg(operand=Call(name='dot', args=(Const(name='e0', pos=5), "
        "BinOp(op='*', lhs=Num(value=2.0, pos=9), rhs=Const(name='e1', "
        "pos=11), pos=10)), pos=1), pos=0)",
        ("operand", "pos"), ("operand", "pos")),
}


def test_every_public_value_class_is_covered():
    covered = {type(build()) for build, *_ in CASES.values()}
    public = {getattr(hypalg, name) for name in hypalg.__all__}
    value_classes = {obj for obj in public if isinstance(obj, type)
                     and not issubclass(obj, BaseException)}
    assert value_classes <= covered


@pytest.mark.parametrize("case", CASES)
def test_equal_values_hash_equal(case):
    build = CASES[case][0]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("case", CASES)
def test_other_types_compare_unequal(case):
    a = CASES[case][0]()
    assert a != object() and not a == object()
    assert a != tuple(getattr(a, name) for name in type(a).__match_args__)
    assert a != repr(a)


def test_same_fields_in_another_class_compare_unequal():
    m = Multivector(H(1.0))
    assert Rotor(m) != Spinor(m) and Spinor(m) != Rotor(m)


def test_built_and_constructed_multivectors_are_one_value():
    built, constructed = S1 * S2, Multivector(z3=H(0.0, 1.0))
    assert built == constructed and hash(built) == hash(constructed)
    for copied in (pickle.loads(pickle.dumps(built)), copy.copy(built),
                   copy.deepcopy(built)):
        assert copied == constructed and hash(copied) == hash(constructed)
        assert (copied.p, copied.m) == (constructed.p, constructed.m)


def test_ast_equality_ignores_positions():
    a, b = parse("1+2"), parse(" 1 +  2")
    assert a == b and hash(a) == hash(b) and repr(a) != repr(b)
    assert parse("1+2") != parse("1-2") and BinOp("+", 1, 2) != parse("1+2")


@pytest.mark.parametrize("case", CASES)
def test_repr_and_match_args(case):
    build, golden, match_args, _ = CASES[case]
    a = build()
    assert repr(a) == golden
    assert type(a).__match_args__ == match_args


@pytest.mark.parametrize("case", CASES)
def test_fields_refuse_assignment_and_deletion(case):
    build, _, _, names = CASES[case]
    a = build()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == build() and repr(a) == repr(build())


def test_other_names_refuse_assignment():
    for build, *_ in CASES.values():
        a = build()
        with pytest.raises(AttributeError):
            a.not_a_field = 0.0
        for name in type(a).__match_args__:
            with pytest.raises(AttributeError):
                setattr(a, name, 0.0)


@pytest.mark.parametrize("case", CASES)
def test_pickle_and_copy_round_trip(case):
    a = CASES[case][0]()
    copies = [pickle.loads(pickle.dumps(a, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(a), copy.deepcopy(a)]
    for b in copies:
        assert type(b) is type(a) and b == a and repr(b) == repr(a)
        assert hash(b) == hash(a)


def test_the_kept_half_never_shows():
    # Rotor and Spinor keep their M2(C) entries, and a rotor its trace
    # terms, in slots of their private base, outside __slots__: a value with
    # them and one without them are one value to ==, hash and repr;
    # pickling carries each one's entries
    from hypalg import (apply, boost, from_rotor, matrix_of, rotation,
                        spin_transform)
    from hypalg.lorentz import (_entries, _sandwich_terms, _spinor_span,
                                _with_half)

    m = Multivector(H(1.0), z2=H(0.0, 0.5))
    for cls in (Rotor, Spinor):
        assert cls.__slots__ == cls.__match_args__ == ("value",)
        a, b = cls(m), _with_half(cls, m, None)
        assert a._half == _entries(m.p) and b._half is None
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == repr(b) and "_half" not in repr(a)
        assert a.__reduce__()[1] == (cls, m, a._half)
        assert b.__reduce__()[1] == (cls, m, None)
        assert pickle.loads(pickle.dumps(a))._half == a._half
        assert pickle.loads(pickle.dumps(b))._half is None
    # a rotor forms its trace terms on its first apply or matrix_of and
    # keeps them in a slot that ==, hash, repr, __reduce__, pickle and copy
    # do not read; no builder forms them, and a copy forms its own
    def bits(values):
        return [(c.real.hex(), c.imag.hex()) for c in values]

    def shown(a):
        return (a, hash(a), repr(a), a.__reduce__(), pickle.dumps(a),
                copy.copy(a), copy.deepcopy(a))

    t = boost((0.3, -0.2, 0.1)) * rotation((0.4, 1.3, -2.0))
    built = (t, t.inverse(), rotation((0.1, 0.2, 0.3)), boost((1, 2, 3)),
             spin_transform(LorentzParams(0.4, 1.3, -2.0)), from_rotor(t),
             _spinor_span(Rotor, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
             _with_half(Rotor, t.value, t._half), Rotor(t.value),
             Spinor(t.value))
    # read through the slot: reading a._terms would form the terms
    assert not any(slot_set(a, "_terms") for a in built)
    x = FourVector(1.0, 0.5, -2.0, 0.25)
    before = shown(t)
    image = apply(t, x)
    assert bits(t._terms) == bits(_sandwich_terms(t._half))
    after = shown(t)
    assert before == after
    for copied in after[5:] + (pickle.loads(after[4]),):
        assert not slot_set(copied, "_terms") and copied == t
        assert [c.hex() for c in apply(copied, x).components()] \
            == [c.hex() for c in image.components()]
        assert bits(copied._terms) == bits(t._terms)
    fresh = _with_half(Rotor, t.value, t._half)
    matrix_of(fresh)
    assert bits(fresh._terms) == bits(t._terms)
