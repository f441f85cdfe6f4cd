"""Value semantics of the package's immutable records.

Each record compares and hashes by its fields, refuses assignment and
deletion, prints as ``Name(field=value, ...)`` and survives ``copy`` and
``pickle``.  ``IndicatorDescriptor`` is the one mutable-attribute class:
its equality ignores ``compute``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scindex import (
    PAPERS,
    AnalyticsTable,
    CitationVector,
    Dimension,
    DomainError,
    ExponentEstimate,
    IndicatorDescriptor,
    IndicatorReport,
    PlotSeries,
    PortfolioSummary,
    Power,
    ProbeResult,
    Product,
    Quantity,
    Quotient,
    Sum,
    Symbol,
    compute_all,
    descriptor,
    parse_input,
    probe_registry,
    reconstruct_from_summary,
)
from scindex.dimension import Record
from scindex.expressions import _Token

SRC = Path(__file__).resolve().parents[1] / "src"
_P = "Dimension(Fraction(1, 1))"
_ESTIMATE = "ExponentEstimate(slope=1.0, intercept=0.5, max_residual=0.0)"


# Stand-in kernels.  Module-level functions pickle by name; the registry's
# kernels are lambdas and do not.
def h_kernel(v):
    return descriptor("h").compute(v)


def g_kernel(v):
    return descriptor("g").compute(v)


# (make one record, make one with another field, its repr)
RECORDS = {
    "Dimension": (
        lambda: Dimension(Fraction(3, 2)),
        lambda: Dimension(2),
        "Dimension(Fraction(3, 2))",
    ),
    "Quantity": (
        lambda: Quantity(2, PAPERS),
        lambda: Quantity(2, Dimension(2)),
        f"Quantity(magnitude=2.0, dim={_P})",
    ),
    "PortfolioSummary.raw": (
        lambda: PortfolioSummary("A", CitationVector([3, 1])),
        lambda: PortfolioSummary("A", CitationVector([3, 2])),
        "PortfolioSummary(label='A', vector=CitationVector([3, 1]), papers=None, "
        "impact=None, evenness=None, h=None)",
    ),
    "PortfolioSummary.summary": (
        lambda: PortfolioSummary.from_summary("B", 10, 2.5, 0.5, h=3),
        lambda: PortfolioSummary.from_summary("B", 10, 2.5, 0.5),
        "PortfolioSummary(label='B', vector=None, papers=10, impact=2.5, "
        "evenness=0.5, h=3.0)",
    ),
    "AnalyticsTable": (
        lambda: AnalyticsTable.from_reports([("A", {"h": Quantity(2.0, PAPERS)})]),
        lambda: AnalyticsTable.from_reports([("B", {"h": Quantity(2.0, PAPERS)})]),
        f"AnalyticsTable(columns=('h',), dims=({_P},), labels=('A',), rows=((2.0,),), "
        "reconstructed=(frozenset(),))",
    ),
    "ExponentEstimate": (
        lambda: ExponentEstimate(1.0, 0.5, 0.0),
        lambda: ExponentEstimate(slope=1.0, intercept=0.5, max_residual=1e-9),
        _ESTIMATE,
    ),
    "ProbeResult": (
        lambda: ProbeResult(
            "h", Fraction(1), (1, 2), (2.0, 4.0), ExponentEstimate(1.0, 0.5, 0.0), True, "ok"
        ),
        lambda: ProbeResult("h", Fraction(1), (1, 2), (2.0, 4.0), None, False),
        "ProbeResult(indicator='h', declared_exponent=Fraction(1, 1), lambdas=(1, 2), "
        f"values=(2.0, 4.0), estimate={_ESTIMATE}, passed=True, note='ok')",
    ),
    "PlotSeries": (
        lambda: PlotSeries("h", [(1, 2), (2, 4)]),
        lambda: PlotSeries("g", [(1, 2), (2, 4)]),
        "PlotSeries(name='h', points=((1.0, 2.0), (2.0, 4.0)), fit=None)",
    ),
    "Symbol": (lambda: Symbol("C"), lambda: Symbol("P"), "Symbol(name='C')"),
    "Sum": (
        lambda: Sum(Symbol("C"), Symbol("P")),
        lambda: Sum(Symbol("P"), Symbol("C")),
        "Sum(left=Symbol(name='C'), right=Symbol(name='P'))",
    ),
    "Product": (
        lambda: Product(Symbol("C"), Symbol("P")),
        lambda: Product(Symbol("C"), Symbol("h")),
        "Product(left=Symbol(name='C'), right=Symbol(name='P'))",
    ),
    "Quotient": (
        lambda: Quotient(left=Symbol("C"), right=Symbol("P")),
        lambda: Quotient(Symbol("C"), Symbol("C")),
        "Quotient(left=Symbol(name='C'), right=Symbol(name='P'))",
    ),
    "Power": (
        lambda: Power(Symbol("i"), Fraction(1, 2)),
        lambda: Power(Symbol("i"), Fraction(1, 3)),
        "Power(base=Symbol(name='i'), exponent=Fraction(1, 2))",
    ),
    "_Token": (
        lambda: _Token("name", "P", 0),
        lambda: _Token("name", "P", 1),
        "_Token(kind='name', text='P', pos=0)",
    ),
}
CASES = pytest.mark.parametrize("case", list(RECORDS), ids=list(RECORDS))


@CASES
def test_equal_fields_mean_equal_records_with_equal_hashes(case):
    make, other, _ = RECORDS[case]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and other() != a


@CASES
def test_another_class_compares_unequal(case):
    make, _, _ = RECORDS[case]
    record = make()

    class Lookalike:
        __slots__ = ()

    assert record != Lookalike() and Lookalike() != record
    assert record != object()
    assert record != None  # noqa: E711


def test_records_of_like_shape_but_another_class_differ():
    assert Sum(Symbol("C"), Symbol("P")) != Product(Symbol("C"), Symbol("P"))
    assert Quotient(Symbol("C"), Symbol("P")) != Product(Symbol("C"), Symbol("P"))


@CASES
def test_assignment_and_deletion_raise(case):
    make, _, text = RECORDS[case]
    record = make()
    # The first field: Dimension prints its one field without a name.
    field = text[text.index("(") + 1 :].split("=", 1)[0] if "=" in text else "exponent"
    for change in (
        lambda: setattr(record, field, 0),
        lambda: delattr(record, field),
        lambda: setattr(record, "extra", 0),
    ):
        with pytest.raises(AttributeError):
            change()
    assert record == make()


@CASES
def test_repr_is_unchanged(case):
    make, _, text = RECORDS[case]
    assert repr(make()) == text


@CASES
def test_copy_deepcopy_and_pickle_give_an_equal_record(case):
    make, _, text = RECORDS[case]
    record = make()
    pickled = range(pickle.HIGHEST_PROTOCOL + 1)
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        *(pickle.loads(pickle.dumps(record, protocol)) for protocol in pickled),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == text


# The records that take their fields through Record's own constructor:
# (class, the fields in slot order).
PLAIN = {
    "AnalyticsTable": (
        AnalyticsTable,
        (("h",), (PAPERS,), ("A",), ((2.0,),), (frozenset(),)),
    ),
    "ExponentEstimate": (ExponentEstimate, (1.0, 0.5, 0.0)),
    "Symbol": (Symbol, ("C",)),
    "Sum": (Sum, (Symbol("C"), Symbol("P"))),
    "Product": (Product, (Symbol("C"), Symbol("P"))),
    "Quotient": (Quotient, (Symbol("C"), Symbol("P"))),
    "Power": (Power, (Symbol("i"), Fraction(1, 2))),
    "_Token": (_Token, ("name", "P", 0)),
}
PLAIN_CASES = pytest.mark.parametrize("case", list(PLAIN), ids=list(PLAIN))


@PLAIN_CASES
def test_fields_are_taken_by_position_or_by_name(case):
    cls, values = PLAIN[case]
    record = cls(*values)
    assert tuple(getattr(record, name) for name in cls.__slots__) == values
    named = dict(zip(cls.__slots__, values))
    assert cls(**named) == record
    assert cls(values[0], **dict(list(named.items())[1:])) == record
    assert cls(**dict(reversed(named.items()))) == record


@PLAIN_CASES
def test_a_wrong_arity_or_an_unknown_field_is_a_type_error(case):
    cls, values = PLAIN[case]
    name, first, last = cls.__qualname__, cls.__slots__[0], cls.__slots__[-1]
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing field '{last}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing field '{first}'$"):
        cls()
    arity = rf"^{name}\(\) takes {len(values)} fields, got {len(values) + 1}$"
    with pytest.raises(TypeError, match=arity):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unexpected field 'extra'$"):
        cls(*values, extra=0)
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unexpected field '{first}'$"):
        cls(*values, **{first: values[0]})


def _record_classes():
    """Every ``Record`` subclass of the package, the expression nodes included."""
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("scindex."):
                found[cls.__qualname__] = cls
    return found


RECORD_CLASSES = _record_classes()


def test_every_record_class_is_covered():
    assert set(RECORD_CLASSES) == {name.split(".")[0] for name in RECORDS}


@pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
def test_fill_sets_each_slot_in_slot_order(name):
    cls = RECORD_CLASSES[name]
    assert "_fill" in vars(cls) and not hasattr(cls, "_setters")
    values = [object() for _ in cls.__slots__]
    record = object.__new__(cls)
    record._fill(*values)
    assert all(getattr(record, slot) is value for slot, value in zip(cls.__slots__, values))


@pytest.mark.parametrize("name", sorted(RECORD_CLASSES))
def test_fill_with_a_wrong_count_is_a_type_error(name):
    cls = RECORD_CLASSES[name]
    count = len(cls.__slots__)
    with pytest.raises(TypeError, match=rf"^{name}\._fill\(\) missing 1 required positional"):
        object.__new__(cls)._fill(*range(count - 1))
    with pytest.raises(TypeError, match=rf"^{name}\._fill\(\) takes {count + 1} positional"):
        object.__new__(cls)._fill(*range(count + 1))


def test_fill_is_generated_on_first_use():
    class Pair(Record):
        __slots__ = ("first", "second")

    assert vars(Pair)["_fill"] is Record._fill
    with pytest.raises(TypeError, match=r"Pair\._fill\(\) takes 3 positional"):
        object.__new__(Pair)._fill(1, 2, 3)
    generated = vars(Pair)["_fill"]
    assert generated is not Record._fill
    pair = Pair(1, 2)
    assert (pair.first, pair.second) == (1, 2) and vars(Pair)["_fill"] is generated


def test_importing_the_cli_generates_only_the_fill_it_uses():
    code = (
        "import scindex.cli\n"
        "scindex.cli.build_parser()\n"
        "from scindex import AnalyticsTable, Dimension, ExponentEstimate, PlotSeries\n"
        "from scindex import PortfolioSummary, ProbeResult\n"
        "from scindex.dimension import Record\n"
        "classes = (AnalyticsTable, Dimension, ExponentEstimate, PlotSeries,\n"
        "           PortfolioSummary, ProbeResult)\n"
        "print(*[c.__name__ for c in classes if vars(c)['_fill'] is not Record._fill])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Dimension"]


class TestIndicatorDescriptor:
    def test_equality_and_hash_ignore_compute(self):
        a = IndicatorDescriptor("h", PAPERS, h_kernel)
        b = IndicatorDescriptor("h", PAPERS, g_kernel)
        assert a == b
        assert hash(a) == hash(b)
        assert a != IndicatorDescriptor("h", PAPERS, h_kernel, fit_tolerance=0.05)
        assert a != IndicatorDescriptor("g", PAPERS, h_kernel)

    def test_never_equals_its_name(self):
        assert (IndicatorDescriptor("h", PAPERS, h_kernel) == "h") is False

    def test_repr_shows_every_field(self):
        desc = IndicatorDescriptor("h", PAPERS, h_kernel)
        assert repr(desc) == (
            f"IndicatorDescriptor(name='h', declared_dim={_P}, "
            f"compute={h_kernel!r}, fit_tolerance=1e-06)"
        )

    def test_copies_keep_compute(self):
        desc = IndicatorDescriptor("h", PAPERS, h_kernel)
        for clone in (copy.copy(desc), copy.deepcopy(desc), pickle.loads(pickle.dumps(desc))):
            assert clone == desc
            assert clone.compute is h_kernel

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1, PAPERS, h_kernel), "indicator name must be a string, got 1"),
            (("h", 1, h_kernel), "indicator h: declared dimension must be a Dimension, got 1"),
            (("C", 2, h_kernel), "indicator C: declared dimension must be a Dimension, got 2"),
            (("h", PAPERS, None), "indicator h: compute must be callable, got None"),
            (
                ("h", PAPERS, h_kernel, "x"),
                "indicator h: fit tolerance must be a real number, got 'x'",
            ),
            (
                ("h", PAPERS, h_kernel, -1.0),
                "indicator h: fit tolerance must be a finite number >= 0, got -1.0",
            ),
        ],
        ids=[
            "name", "declared_dim", "declared_dim int", "compute",
            "fit_tolerance", "fit_tolerance range",
        ],
    )
    def test_each_field_is_checked(self, fields, message):
        with pytest.raises(DomainError) as excinfo:
            IndicatorDescriptor(*fields)
        assert str(excinfo.value) == message

    def test_checked_fields_cannot_be_changed(self):
        before = probe_registry([10, 5, 3, 2, 1])
        desc = descriptor("g")
        for field, value in (("name", "h"), ("declared_dim", 2), ("fit_tolerance", 0.5)):
            with pytest.raises(AttributeError, match=f"indicator g: {field} cannot be changed"):
                setattr(desc, field, value)
            with pytest.raises(AttributeError, match=f"indicator g: {field} cannot be changed"):
                delattr(desc, field)
        assert desc.fit_tolerance == 0.05
        assert probe_registry([10, 5, 3, 2, 1]) == before

    def test_compute_may_be_rebound(self):
        desc = IndicatorDescriptor("h", PAPERS, h_kernel)
        desc.compute = g_kernel
        assert desc.compute is g_kernel
        del desc.compute
        assert "compute" not in vars(desc)


def _summary_csv(text):
    return parse_input("author,P,i,eta,h\n" + text)


def _report_twin(report):
    return IndicatorReport(report.names, report.row)


# Reports and records the ladder and the readers build past the public
# constructor: (build one, build its twin by the public constructor).
BUILT = {
    "vector report": (
        lambda: compute_all([4, 2, 1]),
        lambda: _report_twin(compute_all([4, 2, 1])),
    ),
    "summary report": (
        lambda: reconstruct_from_summary(10, 2.5, 0.5, 3.0),
        lambda: _report_twin(reconstruct_from_summary(10, 2.5, 0.5, 3.0)),
    ),
    "report of a summary CSV row": (
        lambda: _summary_csv("A,10,2.5,0.5,3\n")[0].report(),
        lambda: _report_twin(PortfolioSummary.from_summary("A", 10, 2.5, 0.5, 3.0).report()),
    ),
    "wide CSV record": (
        lambda: parse_input("author,citations\nA,4;1;2\n")[0],
        lambda: PortfolioSummary("A", [4, 2, 1]),
    ),
    "summary CSV record": (
        lambda: _summary_csv("A,10,2.5,0.5,3\n")[0],
        lambda: PortfolioSummary.from_summary("A", 10, 2.5, 0.5, 3.0),
    ),
    "JSON wide record": (
        lambda: parse_input('[{"author": "A", "citations": [1, 4, 2]}]', "json")[0],
        lambda: PortfolioSummary("A", [4, 2, 1]),
    ),
}
BUILT_CASES = pytest.mark.parametrize("case", list(BUILT), ids=list(BUILT))


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@BUILT_CASES
def test_a_built_value_refuses_rebinding_and_deletion(case):
    built = BUILT[case][0]()
    fields = type(built).__slots__
    before = tuple(map(built.__getattribute__, fields))
    for field in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(built, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(built, field)
    assert tuple(map(built.__getattribute__, fields)) == before


@BUILT_CASES
def test_a_built_value_equals_and_hashes_like_its_twin(case):
    build, twin = BUILT[case]
    built, other = build(), twin()
    assert type(built) is type(other) and built == other
    fields = type(built).__slots__
    assert tuple(map(built.__getattribute__, fields)) == tuple(map(other.__getattribute__, fields))
    assert _hash_or_error(built) == _hash_or_error(other)


@BUILT_CASES
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_built_value_survives_a_pickle_round_trip(case, protocol):
    built = BUILT[case][0]()
    clone = pickle.loads(pickle.dumps(built, protocol))
    assert type(clone) is type(built) and clone == built
    fields = type(built).__slots__
    assert tuple(map(clone.__getattribute__, fields)) == tuple(map(built.__getattribute__, fields))
