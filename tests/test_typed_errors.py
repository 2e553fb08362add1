"""Every malformed argument of the public API is a typed ``KoszulLiftError``
with an exact message, never a bare ``TypeError``, ``ValueError`` or
``AttributeError`` and never a silent result.  The first table holds
arguments that once escaped as bare errors or were accepted; the second
pins error branches that no other test reaches."""

import pytest

from koszul_lift.algebra import GradedRing, PolyMatrix
from koszul_lift.assembly import assemble, epsilon_C
from koszul_lift.builtin_examples import paper_5_2
from koszul_lift.complexes import FreeComplex, lift_to_Q, reduce_to_R
from koszul_lift.errors import DegreeBoundTooLowError, InvalidInputError, ParseError
from koszul_lift.fields import GF, QQ, field_from_spec
from koszul_lift.homotopy import HomotopyFamily, solve_homotopies
from koszul_lift.koszul import koszul_complex
from koszul_lift.resolve import Presentation, resolve_over_R


def _lift():
    _, cbar, _ = paper_5_2()
    return lift_to_Q(cbar)


def _ring():
    return paper_5_2()[0]


def _complex_json(**change):
    data = {"over": "R", "window": [0, 1], "twists": {"0": [0], "1": [1]},
            "diffs": {"1": [["x"]]}}
    return {**data, **change}


def _ring_json(**change):
    return {**{"field": "Q", "variables": ["x"], "sequence": ["x^2"]}, **change}


def _presentation():
    ring = _ring()
    return Presentation((0,), PolyMatrix.from_rows([[ring.parse("x"), ring.parse("y")]]))


def _family_on_another_lift():
    F = _lift()
    other = FreeComplex(F.ring, "Q", F.window, F.twists, F.diffs, support="bounded_below",
                        is_lift=True)
    return assemble(other, solve_homotopies(F, 1))


def _epsilon_against_a_lift():
    F = _lift()
    return epsilon_C(assemble(F, solve_homotopies(F, 1)), F)


MALFORMED_ARGUMENTS = [
    ("GF-float", lambda: GF(7.0), InvalidInputError, "prime must be an integer, got 7.0"),
    ("GF-str", lambda: GF("7"), InvalidInputError, "prime must be an integer, got '7'"),
    ("GF-None", lambda: GF(None), InvalidInputError, "prime must be an integer, got None"),
    ("GF-composite", lambda: GF(4), InvalidInputError, "4 is not prime"),
    ("GF-one", lambda: GF(1), InvalidInputError, "prime must lie in (1, 2^31), got 1"),
    ("GF-bool", lambda: GF(True), InvalidInputError, "prime must lie in (1, 2^31), got True"),
    ("ring-field-int", lambda: GradedRing(7, ["x"]), InvalidInputError,
     "field must be QQ or GF(p), got 7"),
    ("ring-variable-int", lambda: GradedRing(QQ, [1]), InvalidInputError,
     "bad variable name 1"),
    ("ring-sequence-int-entry", lambda: GradedRing(QQ, ["x"], sequence=[5]), InvalidInputError,
     "sequence entry must be a polynomial string or a Poly, got 5"),
    ("ring-sequence-None", lambda: GradedRing(QQ, ["x"], sequence=None), InvalidInputError,
     "sequence must be a list of polynomials, got None"),
    ("ring-sequence-dict", lambda: GradedRing(QQ, ["x"], sequence={"x": 1}), InvalidInputError,
     "sequence must be a list of polynomials, got {'x': 1}"),
    ("solve-level-float", lambda: solve_homotopies(_lift(), 1.0), InvalidInputError,
     "homotopy level must be an integer, got 1.0"),
    ("solve-level-str", lambda: solve_homotopies(_lift(), "1"), InvalidInputError,
     "homotopy level must be an integer, got '1'"),
    ("solve-level-None", lambda: solve_homotopies(_lift(), None), InvalidInputError,
     "homotopy level must be an integer, got None"),
    ("solve-level-bool", lambda: solve_homotopies(_lift(), True), InvalidInputError,
     "homotopy level must be an integer, got True"),
]

UNREACHED_BRANCHES = [
    ("ring-no-variables", lambda: GradedRing(QQ, []), InvalidInputError,
     "need at least one variable"),
    ("ring-bad-name", lambda: GradedRing(QQ, ["1x"]), InvalidInputError,
     "bad variable name '1x'"),
    ("ring-duplicate-name", lambda: GradedRing(QQ, ["x", "x"]), InvalidInputError,
     "duplicate variable 'x'"),
    ("ring-relation-length", lambda: GradedRing(QQ, ["x", "y"], relations=[[1]]),
     InvalidInputError, "bad relation exponents (1,)"),
    ("ring-relation-negative", lambda: GradedRing(QQ, ["x", "y"], relations=[[2, -1]]),
     InvalidInputError, "bad relation exponents (2, -1)"),
    ("ring-relation-degree-0", lambda: GradedRing(QQ, ["x", "y"], relations=[[0, 0]]),
     InvalidInputError, "relation generators must have degree >= 1"),
    ("ring-json-not-object", lambda: GradedRing.from_json_dict([]), ParseError,
     "ring JSON must be an object"),
    ("ring-json-missing-key", lambda: GradedRing.from_json_dict({"variables": ["x"]}),
     ParseError, "ring JSON missing key 'field'"),
    ("ring-json-variables", lambda: GradedRing.from_json_dict(_ring_json(variables=["x", 1])),
     ParseError, "ring JSON variables must be a list of strings"),
    ("ring-json-sequence", lambda: GradedRing.from_json_dict(_ring_json(sequence="x^2")),
     ParseError, "ring JSON sequence must be a list of polynomial strings"),
    ("field-spec-4", lambda: field_from_spec(4), ParseError, "bad field spec: 4 is not prime"),
    ("field-spec-str-4", lambda: field_from_spec("4"), ParseError,
     "bad field spec: 4 is not prime"),
    ("field-spec-1", lambda: field_from_spec(1), ParseError,
     "bad field spec: prime must lie in (1, 2^31), got 1"),
    ("field-spec-0", lambda: field_from_spec(0), ParseError,
     "bad field spec: prime must lie in (1, 2^31), got 0"),
    ("field-spec-negative", lambda: field_from_spec(-3), ParseError,
     "bad field spec: prime must lie in (1, 2^31), got -3"),
    ("field-spec-too-large", lambda: field_from_spec(2147483659), ParseError,
     "bad field spec: prime must lie in (1, 2^31), got 2147483659"),
    ("complex-json-not-object", lambda: FreeComplex.from_json_dict(_ring(), []), ParseError,
     "complex JSON must be an object"),
    ("complex-json-missing-key",
     lambda: FreeComplex.from_json_dict(_ring(), {"over": "R", "window": [0, 1]}),
     ParseError, "complex JSON missing key: 'twists'"),
    ("complex-json-window", lambda: FreeComplex.from_json_dict(_ring(), _complex_json(window=[0])),
     ParseError, "bad window [0]"),
    ("complex-json-lift", lambda: FreeComplex.from_json_dict(_ring(), _complex_json(lift=1)),
     ParseError, "complex JSON lift must be true or false"),
    ("complex-json-twists", lambda: FreeComplex.from_json_dict(_ring(), _complex_json(twists=[])),
     ParseError, "complex JSON twists and diffs must be objects"),
    ("complex-json-diffs", lambda: FreeComplex.from_json_dict(_ring(), _complex_json(diffs=[])),
     ParseError, "complex JSON twists and diffs must be objects"),
    ("complex-json-twists-entry",
     lambda: FreeComplex.from_json_dict(_ring(), _complex_json(twists={"0": 0, "1": [1]})),
     ParseError, "twists at position 0 must be a list"),
    ("complex-json-diff-key",
     lambda: FreeComplex.from_json_dict(_ring(), _complex_json(diffs={"0": [["x"]]})),
     ParseError, "differential key 0 outside window"),
    ("complex-support",
     lambda: FreeComplex(_ring(), "R", (0, 0), {0: (0,)}, {}, support="infinite"),
     InvalidInputError, "unknown support 'infinite'"),
    ("complex-diff-key",
     lambda: FreeComplex(_ring(), "R", (0, 0), {0: (0,)}, {0: PolyMatrix.zeros(_ring(), 1, 1)}),
     InvalidInputError, "differential keys outside (lo, hi]"),
    ("complex-rank", lambda: _lift().rank(7), InvalidInputError,
     "rank at position 7 is outside the window"),
    ("reduce-R-complex", lambda: reduce_to_R(paper_5_2()[1]), InvalidInputError,
     "reduce_to_R expects a complex over Q"),
    ("solve-R-complex", lambda: solve_homotopies(paper_5_2()[1], 1), InvalidInputError,
     "solve_homotopies expects a complex over Q"),
    ("family-R-complex", lambda: HomotopyFamily(paper_5_2()[1], 0, {}), InvalidInputError,
     "homotopies live on a complex over Q"),
    ("family-map-outside-window",
     lambda: HomotopyFamily(_lift(), 1, {(1,): {7: PolyMatrix.zeros(_ring(), 1, 1)}}),
     InvalidInputError, "t^(1,) at 7 is outside the window"),
    ("assemble-other-complex", _family_on_another_lift, InvalidInputError,
     "family was solved on a different complex"),
    ("epsilon-Q-complex", _epsilon_against_a_lift, InvalidInputError,
     "epsilon_C compares against a complex over R"),
    ("presentation-json-not-object", lambda: Presentation.from_json_dict(_ring(), []),
     ParseError, "presentation JSON must be an object"),
    ("presentation-json-missing-key",
     lambda: Presentation.from_json_dict(_ring(), {"twists": [0]}),
     ParseError, "presentation JSON missing key: 'relations'"),
    ("presentation-json-twists",
     lambda: Presentation.from_json_dict(_ring(), {"twists": 0, "relations": [["x"]]}),
     ParseError, "presentation twists must be a list"),
    ("resolve-length-0", lambda: resolve_over_R(_ring(), _presentation(), 0, 5),
     InvalidInputError, "length must be >= 1"),
    ("resolve-bound-below-presentation", lambda: resolve_over_R(_ring(), _presentation(), 2, 0),
     DegreeBoundTooLowError, "degree bound 0 cannot even hold the presentation"),
    ("QQ-list", lambda: QQ([1]), ParseError, "cannot coerce [1] to Q"),
    ("F7-list", lambda: GF(7)([1]), ParseError, "cannot coerce [1] to F_7"),
    ("koszul-17-elements", lambda: koszul_complex(_ring(), ["x"] * 17), InvalidInputError,
     "too many elements (17 > 16)"),
]


@pytest.mark.parametrize(
    "call, kind, message",
    [case[1:] for case in MALFORMED_ARGUMENTS + UNREACHED_BRANCHES],
    ids=[case[0] for case in MALFORMED_ARGUMENTS + UNREACHED_BRANCHES],
)
def test_typed_error_and_message(call, kind, message):
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_a_refused_float_prime_leaves_the_int_field():
    # GF caches one field per p, and 7.0 == 7 as a dict key: a float that
    # got through would be cached under 7, or be handed the int field
    with pytest.raises(InvalidInputError):
        GF(7.0)
    field = GF(7)
    assert type(field.char) is int and field.char == 7
    assert str(GradedRing(field, ["x"]).parse("3*x") * 5) == "x"
