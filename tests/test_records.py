"""Contracts of the package's record types.

Plain result records are ``typing.NamedTuple``s.  The value types that
validate their input or keep derived state (and the destab record, read
once per splitting) are slotted immutable classes.  Every one refuses
assignment with AttributeError, compares and hashes by value, survives a
pickle round trip, and rejects invalid input with the package's errors.

A value that the other fields fix is not a field: ``PosDefForm.rank``,
``ConfigurationPresentation.n`` and ``DestabCandidate.ell`` are slots set
in ``__init__``, and ``BNPrediction.notes`` and
``PlaneCoverFamilyReport.pencil_family_dim`` are class constants.
"""

import pickle
from fractions import Fraction

import pytest

from enriques_bn.brill_noether import (
    enumerate_destab,
    param_count,
    plane_cover_family_report,
    predict_w1d,
    stable_case_audit,
)
from enriques_bn.errors import NotRealizableError
from enriques_bn.frozen import Frozen
from enriques_bn.invariants import decompose_isotropic, gonality
from enriques_bn.lattice import (
    CONFIG_CUSTOM,
    ConfigurationPresentation,
    DivisorClass,
    IntersectionForm,
    NumClass,
    canonical_form,
    config_iii,
)
from enriques_bn.positivity import classify_positivity, cohomology
from enriques_bn.shortvec import PosDefForm, enumerate_short


def sample_records():
    """One instance of each of the 17 record types, by type name."""
    form = canonical_form()
    num = NumClass((1, 6, 0, 0, 0, 0, 0, 0, 0, 0), form)  # f + 6g
    L = DivisorClass(num, 0)
    rep = gonality(L)
    posdef = PosDefForm(((2, 1), (1, 2)))
    return {
        "IntersectionForm": form,
        "NumClass": num,
        "DivisorClass": L,
        "PosDefForm": posdef,
        "ConfigurationPresentation": config_iii(3),
        "PhiResult": rep.phi,
        "MuResult": rep.mu,
        "GonalityReport": rep,
        "IsotropicDecomposition": decompose_isotropic(L),
        "BNPrediction": predict_w1d(L),
        "DestabCandidate": enumerate_destab(L, rep.k)[0],
        "ParamCountAudit": param_count(13, 5, 5, 0, 0, 0, k=2),
        "PlaneCoverFamilyReport": plane_cover_family_report(3),
        "StableCaseAudit": stable_case_audit(13, 5),
        "ShortVectorResult": enumerate_short(posdef, 2),
        "PositivityStatus": classify_positivity(L),
        "CohomologyProfile": cohomology(L),
    }


RECORDS = sample_records()
REPORTS = [name for name, r in RECORDS.items() if isinstance(r, tuple)]


def fields(record):
    return [getattr(record, f) for f in record._fields]


def test_every_type_is_covered():
    assert len(RECORDS) == 17
    assert sorted(type(r).__name__ for r in RECORDS.values()) == sorted(RECORDS)
    assert len(REPORTS) == 11


@pytest.mark.parametrize("names", [(), ("x",)])
def test_slotted_types_need_two_fields(names):
    # one field would make the field getter return the bare value, which
    # breaks pickling and splats a tuple-valued field into __init__
    with pytest.raises(TypeError, match="two or more fields"):
        type("Single", (Frozen,), {"__slots__": names, "_fields": names})


@pytest.mark.parametrize("name", RECORDS)
class TestContract:
    def test_assigning_a_field_raises(self, name):
        record = RECORDS[name]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.not_a_field = 0

    def test_equal_values_compare_and_hash_equal(self, name):
        record = RECORDS[name]
        copy = type(record)(*fields(record))
        assert copy is not record
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)

    def test_pickle_round_trip(self, name):
        record = RECORDS[name]
        assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_names_every_field(self, name):
        record = RECORDS[name]
        text = repr(record)
        assert text.startswith(f"{name}(")
        for field in record._fields:
            assert f"{field}=" in text


@pytest.mark.parametrize("name", REPORTS)
def test_replace_on_reports(name):
    record = RECORDS[name]
    field = record._fields[-1]
    changed = record._replace(**{field: "other"})
    assert type(changed) is type(record)
    assert getattr(changed, field) == "other"
    assert fields(changed)[:-1] == fields(record)[:-1]
    assert getattr(record, field) != "other"


class TestNumClassHash:
    def test_equal_forms_in_distinct_objects(self):
        form = canonical_form()
        twin = IntersectionForm(form.rank, tuple(tuple(row) for row in form.gram))
        assert twin is not form and twin == form and hash(twin) == hash(form)
        coords = (2, 1, 0, -1, 0, 0, 3, 0, 0, 1)
        x, y = NumClass(coords, form), NumClass(coords, twin)
        assert x == y and hash(x) == hash(y)
        assert x.dot(y) == x.square == y.square

    def test_same_coordinates_in_another_form(self):
        form = canonical_form()
        diagonal = IntersectionForm(
            10, tuple(tuple(int(i == j) for j in range(10)) for i in range(10))
        )
        coords = (2, 1, 0, -1, 0, 0, 3, 0, 0, 1)
        assert NumClass(coords, form) != NumClass(coords, diagonal)

    def test_divisor_classes_compare_by_class_and_bit(self):
        x = RECORDS["NumClass"]
        assert DivisorClass(x, 0) != DivisorClass(x, 1)
        assert DivisorClass(x, 1) == DivisorClass(-(-x), 1)

    def test_square_is_computed_once(self, monkeypatch):
        x = NumClass((1, 6, 0, 0, 0, 0, 0, 0, 0, 0), canonical_form())
        assert x.square == 12
        # a second read does not look at the form's terms again
        monkeypatch.setattr(IntersectionForm, "_diagonal", property(lambda s: 1 / 0))
        assert x.square == 12


class TestValidation:
    def test_intersection_form(self):
        with pytest.raises(ValueError, match="size"):
            IntersectionForm(2, ((0, 1),))
        with pytest.raises(ValueError, match="symmetric"):
            IntersectionForm(2, ((0, 1), (2, 0)))

    def test_num_class(self):
        with pytest.raises(ValueError, match="expected 10 coordinates, got 2"):
            NumClass((1, 0), canonical_form())

    @pytest.mark.parametrize("bit", [2, -1, True, False])
    def test_torsion_bit(self, bit):
        with pytest.raises(ValueError, match="torsion bit"):
            DivisorClass(RECORDS["NumClass"], bit)

    def test_posdef_form(self):
        with pytest.raises(ValueError, match="denominator"):
            PosDefForm(((1,),), 0)
        with pytest.raises(ValueError, match="size"):
            PosDefForm(((1, 0),))
        with pytest.raises(ValueError, match="symmetric"):
            PosDefForm(((2, 1), (0, 2)))
        q = PosDefForm(((3,),), 2)
        assert q.rank == 1 and q.value((1,)) == Fraction(3, 2)

    @pytest.mark.parametrize(
        "n, gram, match",
        [
            (0, (), "1 <= n <= 10"),
            (2, ((0, 1), (1,)), "size"),
            (2, ((1, 1), (1, 0)), "zero diagonal"),
            (2, ((0, 1), (2, 0)), "symmetric"),
            (2, ((0, 0), (0, 0)), "pair positively"),
        ],
    )
    def test_configuration(self, n, gram, match):
        assert len(gram) == n  # the presentation reads n from the rows
        with pytest.raises(NotRealizableError, match=match):
            ConfigurationPresentation(gram, CONFIG_CUSTOM)

    def test_derived_values_are_not_fields(self):
        p = RECORDS["ConfigurationPresentation"]
        assert p.n == 3 and "n" not in p._fields
        assert "rank" not in RECORDS["PosDefForm"]._fields
        assert "ell" not in RECORDS["DestabCandidate"]._fields
        assert "notes" not in RECORDS["BNPrediction"]._fields
        assert RECORDS["BNPrediction"].notes == ()
        report = RECORDS["PlaneCoverFamilyReport"]
        assert "pencil_family_dim" not in report._fields
        assert report.pencil_family_dim == 1
