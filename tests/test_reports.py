"""CSV row serialization of reports."""
from stinqos.reports import QoSReport, REPORT_FIELDS, report_row


class TestReportRow:
    def test_field_order_and_blanks(self):
        rep = QoSReport(kind="delay", theta=0.4, bound_value=0.01,
                        threshold=5.0, kernel_value=0.01, stability_ok=True)
        row = report_row(rep, seed=9)
        assert list(row) == REPORT_FIELDS
        assert row["stable"] is True and row["seed"] == 9

    def test_missing_fields_serialize_empty(self):
        rep = QoSReport(kind="error", theta=0.2, bound_value=0.2)
        row = report_row(rep)
        assert row["threshold"] == "" and row["kernel"] == "" and row["seed"] == ""
