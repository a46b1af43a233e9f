"""Unit tests for edge records and CSV round-tripping."""

import pytest

from repro.exceptions import DatasetError
from repro.graph.stream import (
    EdgeRecord,
    iter_sorted,
    read_edge_records,
    write_edge_records,
)


class TestEdgeRecord:
    def test_defaults_and_ordering(self):
        early = EdgeRecord(time=1.0, src="a", dst="b")
        late = EdgeRecord(time=2.0, src="a", dst="b", weight=3.0)
        assert early.weight == 1.0
        assert early < late

    def test_negative_weight_rejected(self):
        with pytest.raises(DatasetError):
            EdgeRecord(time=0.0, src="a", dst="b", weight=-1.0)

    def test_frozen(self):
        record = EdgeRecord(time=0.0, src="a", dst="b")
        with pytest.raises(AttributeError):
            record.weight = 2.0

    def test_iter_sorted(self):
        records = [
            EdgeRecord(time=3.0, src="a", dst="b"),
            EdgeRecord(time=1.0, src="c", dst="d"),
            EdgeRecord(time=2.0, src="e", dst="f"),
        ]
        assert [r.time for r in iter_sorted(records)] == [1.0, 2.0, 3.0]


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        records = [
            EdgeRecord(time=0.0, src="alice", dst="bob", weight=2.0),
            EdgeRecord(time=1.5, src="bob", dst="carol", weight=1.0),
        ]
        path = tmp_path / "trace.csv"
        written = write_edge_records(records, path)
        assert written == 2
        loaded = read_edge_records(path)
        assert loaded == records

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_edge_records([], path) == 0
        assert read_edge_records(path) == []

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header,entirely,nope\n1,a,b,1\n")
        with pytest.raises(DatasetError):
            read_edge_records(path)

    def test_column_count_validation(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("time,src,dst,weight\n1,a,b\n")
        with pytest.raises(DatasetError) as excinfo:
            read_edge_records(path)
        assert ":2:" in str(excinfo.value)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time,src,dst,weight\nnot-a-time,a,b,1\n")
        with pytest.raises(DatasetError) as excinfo:
            read_edge_records(path)
        assert ":2:" in str(excinfo.value)

    def test_truly_empty_file(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        assert read_edge_records(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("time,src,dst,weight\n1,a,b,1\n\n2,c,d,2\n")
        loaded = read_edge_records(path)
        assert len(loaded) == 2


class TestErrorPolicies:
    def dirty_csv(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text(
            "time,src,dst,weight\n"
            "1,a,b,1\n"
            "bad-time,c,d,1\n"
            "2,e,f\n"
            "3,g,h,-4\n"
            "4,i,j,2\n"
        )
        return path

    def test_unknown_policy_rejected(self, tmp_path):
        path = self.dirty_csv(tmp_path)
        with pytest.raises(DatasetError):
            read_edge_records(path, errors="lenient")

    def test_strict_is_default_and_raises(self, tmp_path):
        path = self.dirty_csv(tmp_path)
        with pytest.raises(DatasetError):
            read_edge_records(path)

    def test_skip_collects_rejections_with_reasons(self, tmp_path):
        path = self.dirty_csv(tmp_path)
        report = read_edge_records(path, errors="skip")
        assert len(report) == 2
        assert report.num_rejected == 3
        assert [item.line_number for item in report.rejected] == [3, 4, 5]
        reasons = " / ".join(item.reason for item in report.rejected)
        assert "columns" in reasons and "non-negative" in reasons

    def test_report_is_list_compatible(self, tmp_path):
        path = self.dirty_csv(tmp_path)
        report = read_edge_records(path, errors="skip")
        assert isinstance(report, list)
        assert report == [
            EdgeRecord(time=1.0, src="a", dst="b", weight=1.0),
            EdgeRecord(time=4.0, src="i", dst="j", weight=2.0),
        ]
        assert report.rejected_fraction() == pytest.approx(3 / 5)

    def test_quarantine_writes_rejected_rows(self, tmp_path):
        path = self.dirty_csv(tmp_path)
        quarantine = tmp_path / "quarantine.csv"
        report = read_edge_records(path, errors="quarantine", quarantine_path=quarantine)
        assert report.num_rejected == 3
        text = quarantine.read_text()
        assert "line_number,reason,raw_row" in text
        assert "bad-time" in text

    def test_clean_file_reports_zero_rejections(self, tmp_path):
        path = tmp_path / "clean.csv"
        write_edge_records([EdgeRecord(time=0.0, src="a", dst="b")], path)
        report = read_edge_records(path, errors="skip")
        assert report.num_rejected == 0
        assert report.rejected_fraction() == 0.0

    def test_non_finite_rows_are_rejected(self, tmp_path):
        path = tmp_path / "non_finite.csv"
        path.write_text(
            "time,src,dst,weight\n"
            "1,a,b,1\n"
            "2,a,c,nan\n"
            "3,a,d,inf\n"
            "nan,a,e,1\n"
            "-inf,a,f,1\n"
            "4,a,g,2\n"
        )
        report = read_edge_records(path, errors="skip")
        assert [record.dst for record in report] == ["b", "g"]
        assert [item.line_number for item in report.rejected] == [3, 4, 5, 6]
        assert all("finite" in item.reason for item in report.rejected)
        with pytest.raises(DatasetError, match=r":3: time and weight must be finite"):
            read_edge_records(path)

    def test_wrong_header_raises_under_every_policy(self, tmp_path):
        path = tmp_path / "bad_header.csv"
        path.write_text("completely,wrong,header,row\n1,a,b,1\n")
        for policy in ("strict", "skip", "quarantine"):
            with pytest.raises(DatasetError):
                read_edge_records(path, errors=policy)


class TestAtomicWrites:
    def test_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_edge_records([EdgeRecord(time=0.0, src="a", dst="b")], path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_preserves_previous_content(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_edge_records([EdgeRecord(time=0.0, src="a", dst="b")], path)
        before = path.read_text()

        def exploding_records():
            yield EdgeRecord(time=1.0, src="x", dst="y")
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError):
            write_edge_records(exploding_records(), path)
        assert path.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []
