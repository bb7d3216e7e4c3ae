"""Tests for the extended SPEC model set."""

from repro.workloads.spec import lbm, leslie3d, libquantum, mcf, omnetpp


class TestSpecModels:
    def test_all_factories_produce_distinct_profiles(self):
        models = [leslie3d(), lbm(), mcf(), libquantum(), omnetpp()]
        names = {m.name for m in models}
        assert len(names) == 5

    def test_mcf_is_serial_and_big(self):
        model = mcf()
        assert model.mlp == 1
        assert model.working_set_bytes > leslie3d().working_set_bytes

    def test_libquantum_streams(self):
        model = libquantum()
        assert model.locality < 0.1
        assert model.mlp >= 8

    def test_omnetpp_has_reuse(self):
        assert omnetpp().locality > 0.5

    def test_scaling(self):
        assert mcf(scale=0.5).working_set_bytes == mcf().working_set_bytes // 2
