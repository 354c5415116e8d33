"""CSV row serialization of reports, and their read-only parameters."""
from dataclasses import replace

import pytest

from stinqos.aoi import ArrivalModel, ServiceModel
from stinqos.reports import QoSReport, REPORT_FIELDS, report_row
from stinqos.snc import optimize_paoi_bound


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


class TestParams:
    def test_item_assignment_raises(self):
        params = {"n": 64}
        rep = QoSReport(kind="aoi", theta=0.1, bound_value=0.5, params=params)
        with pytest.raises(TypeError):
            rep.params["n"] = 128
        params["n"] = 128  # the report keeps a copy of the mapping given
        assert rep.params["n"] == 64

    def test_replace_gives_new_read_only_params(self):
        rep = optimize_paoi_bound(150_000.0, 64, None, ArrivalModel.poisson(1 / 4096),
                                  ServiceModel.arq(64, 0.01))
        assert rep.params["theta_interval"][0] == 0.0
        with pytest.raises(TypeError):
            rep.params["theta_interval"] = None
        moved = replace(rep, params={**rep.params, "extra": 1})
        assert moved.params["extra"] == 1 and "extra" not in rep.params
        with pytest.raises(TypeError):
            moved.params["extra"] = 2
