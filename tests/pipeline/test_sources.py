"""Unit tests for pluggable record sources."""

import pytest

from repro.exceptions import DatasetError, PipelineError
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.pipeline.sources import CsvRecordSource, IterableRecordSource


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_edge_records(
        [
            EdgeRecord(time=0.0, src="a", dst="b", weight=2.0),
            EdgeRecord(time=1.0, src="b", dst="c", weight=1.0),
        ],
        path,
    )
    return path


class TestCsvRecordSource:
    def test_read_is_idempotent(self, trace):
        source = CsvRecordSource(trace)
        first = source.read()
        second = source.read()
        assert list(first) == list(second)
        assert len(first) == 2

    def test_unknown_policy_rejected(self, trace):
        with pytest.raises(PipelineError):
            CsvRecordSource(trace, errors="ignore")

    def test_quarantine_writes_file(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text("time,src,dst,weight\n1,a,b,1\nbad,x,y,1\n")
        quarantine = tmp_path / "quarantine.csv"
        source = CsvRecordSource(path, errors="quarantine", quarantine_path=quarantine)
        report = source.read()
        assert report.num_accepted == 1
        assert report.num_rejected == 1
        assert quarantine.exists()
        assert "bad" in quarantine.read_text()

    def test_describe_names_path(self, trace):
        assert str(trace) in CsvRecordSource(trace).describe()


class TestIterableRecordSource:
    def test_accepts_records_and_tuples(self):
        source = IterableRecordSource(
            [EdgeRecord(time=0.0, src="a", dst="b"), (1.0, "b", "c", 2.0)]
        )
        report = source.read()
        assert len(report) == 2
        assert report[1] == EdgeRecord(time=1.0, src="b", dst="c", weight=2.0)

    def test_strict_raises_on_garbage(self):
        source = IterableRecordSource([("nope", "a", "b", "x")])
        with pytest.raises(DatasetError):
            source.read()

    def test_skip_collects_rejections(self):
        source = IterableRecordSource(
            [(0.0, "a", "b", 1.0), ("nope", "a", "b", "x"), (1.0, "c", "d", 1.0)],
            errors="skip",
        )
        report = source.read()
        assert len(report) == 2
        assert report.num_rejected == 1
        assert report.rejected[0].line_number == 1

    MIXED = [
        EdgeRecord(time=0.0, src="a", dst="b"),
        ("nope", "a", "b", 1.0),
        EdgeRecord(time=1.0, src="b", dst="c", weight=2.0),
        (2.0, "c", "d", 3.0),
        (3.0, "d"),
        EdgeRecord(time=4.0, src="d", dst="e"),
    ]

    def test_records_only_are_returned_as_given(self):
        records = [item for item in self.MIXED if isinstance(item, EdgeRecord)]
        report = IterableRecordSource(records, errors="skip").read()
        assert list(report) == records
        assert report.num_rejected == 0 and report.policy == "skip"

    def test_mixed_items_still_rejected_under_strict(self):
        with pytest.raises(DatasetError, match="^record 1: "):
            IterableRecordSource(self.MIXED).read()

    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_mixed_items_rejected_with_their_positions(self, policy):
        report = IterableRecordSource(self.MIXED, errors=policy).read()
        assert [row.line_number for row in report.rejected] == [1, 4]
        assert list(report) == [
            self.MIXED[0],
            self.MIXED[2],
            EdgeRecord(time=2.0, src="c", dst="d", weight=3.0),
            self.MIXED[5],
        ]

    def test_negative_weight_is_rejected_not_fatal_under_skip(self):
        source = IterableRecordSource([(0.0, "a", "b", -3.0)], errors="skip")
        report = source.read()
        assert len(report) == 0
        assert report.num_rejected == 1

    @pytest.mark.parametrize(
        "item", [(0.0, "a", "c", float("nan")), (0.0, "a", "c", "inf"), (float("-inf"), "a", "c", 1.0)]
    )
    def test_non_finite_time_or_weight_is_rejected_under_skip(self, item):
        source = IterableRecordSource([(0.0, "a", "b", 1.0), item], errors="skip")
        report = source.read()
        assert report == [EdgeRecord(0.0, "a", "b", 1.0)]
        assert report.num_rejected == 1
        assert "finite" in report.rejected[0].reason
