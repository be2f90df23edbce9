"""The value classes are named tuples: their construction, repr,
equality, hash and pickling, and a ``_replace`` that checks its fields as
the constructor does."""

import math
import pickle

import pytest

from bsfrac import (
    ClosedFormImage,
    DomainError,
    FunctionKind,
    MsmParams,
    PathwayDensityParams,
    PathwayParams,
    PreconditionError,
    SignedLogGamma,
    WrightSpec,
    wright_eval,
)

SPEC = WrightSpec(((0.5, 0.5), (1, 1)), ((1.25, 0.5), (2, 1)))
# class, positional fields, repr
VALUES = {
    "SignedLogGamma": (SignedLogGamma, (1.25, -1), "SignedLogGamma(log_abs=1.25, sign=-1)"),
    "WrightSpec": (WrightSpec, (((0.5, 0.5), (1.0, 1.0)), ((1.25, 0.5),)),
                   "WrightSpec(upper=((0.5, 0.5), (1.0, 1.0)), lower=((1.25, 0.5),))"),
    "MsmParams": (MsmParams, (0.3, 0.2, 0.1, 0.4, 1.1),
                  "MsmParams(alpha=0.3, alpha_prime=0.2, beta=0.1, beta_prime=0.4, gamma=1.1)"),
    "FunctionKind": (FunctionKind, ("bs", 1.5, 0.25, 2.0),
                     "FunctionKind(family='bs', rho=1.5, nu=0.25, lam=2.0)"),
    "ClosedFormImage": (ClosedFormImage, (0.5, 1.5, WrightSpec((), ()), 0.0, True),
                        "ClosedFormImage(prefactor=0.5, power_of_x=1.5, "
                        "spec=WrightSpec(upper=(), lower=()), argument_scale=0.0, "
                        "inverse_argument=True)"),
    "PathwayParams": (PathwayParams, (0.5, 1.3, 0.4),
                      "PathwayParams(eta=0.5, a=1.3, pathway_alpha=0.4)"),
    "PathwayDensityParams": (PathwayDensityParams, (1.0, 2.0, 1.0, 1.0, 0.5),
                             "PathwayDensityParams(gamma_shape=1.0, delta=2.0, beta_shape=1.0, "
                             "a=1.0, pathway_alpha=0.5)"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_class_contract(name):
    cls, args, text = VALUES[name]
    value = cls(*args)
    by_name = cls(**dict(zip(value._fields, args)))
    assert repr(value) == repr(by_name) == text
    assert value == by_name and hash(value) == hash(by_name)
    assert value._asdict() == dict(zip(value._fields, value))
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)
    assert value._replace() == value and type(value._replace()) is cls
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], args[0])


@pytest.mark.parametrize("value, field, bad, error", [
    (MsmParams(0.3, 0.2, 0.1, 0.4, 1.1), "gamma", -1.0, PreconditionError),
    (MsmParams(0.3, 0.2, 0.1, 0.4, 1.1), "alpha", math.inf, PreconditionError),
    (FunctionKind("bs", 1.5, 0.25), "nu", math.nan, PreconditionError),
    (FunctionKind("bs", 1.5, 0.25), "nu", -1.0, DomainError),
    (FunctionKind("bs", 1.5, 0.25), "family", "cosh", DomainError),
    (SPEC, "upper", ((1.0, -0.5),), DomainError),
    (SPEC, "lower", ((math.nan, 1.0),), DomainError),
    (PathwayParams(0.5, 1.3, 0.4), "pathway_alpha", 1.0, PreconditionError),
    (PathwayParams(0.5, 1.3, 0.4), "eta", -0.7, PreconditionError),
    (PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 0.5), "delta", 0.0, PreconditionError),
    (PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 0.5), "a", math.nan, PreconditionError),
])
def test_replace_refuses_what_the_constructor_refuses(value, field, bad, error):
    # namedtuple's _replace builds through _make, past __new__: the checked
    # classes route _make through the constructor, message and all
    with pytest.raises(error) as made:
        type(value)(**{**value._asdict(), field: bad})
    with pytest.raises(error) as replaced:
        value._replace(**{field: bad})
    with pytest.raises(error) as remade:
        type(value)._make({**value._asdict(), field: bad}.values())
    assert str(made.value) == str(replaced.value) == str(remade.value)


def test_wright_spec_compares_by_its_pairs_only():
    fresh = WrightSpec(SPEC.upper, SPEC.lower)
    assert not fresh._rows
    wright_eval(fresh, 0.7)  # fills its term table
    assert fresh._rows
    assert fresh == SPEC and hash(fresh) == hash(SPEC) and repr(fresh) == repr(SPEC)
    for name in ("delta", "columns", "_rows"):  # wright_eval trusts them
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(fresh, name, getattr(fresh, name))
    # the derived attributes are made again for the new pairs
    other = fresh._replace(lower=((2.0, 1.0),))
    assert other.delta == 1.0 - 1.5 and other.columns == ((0.5, 1.0), (0.5, 1.0), (2.0,), (1.0,))
    assert other._rows == [] and other._rows is not fresh._rows


def test_special_kind_pins_order_and_scale():
    kind = FunctionKind("exp", 1.0, 5.0, 2.0)
    assert (kind.nu, kind.lam) == (-0.5, 1.0)
    assert kind._replace(rho=2.0, nu=3.0) == FunctionKind("exp", 2.0)
