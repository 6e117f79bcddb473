"""CLI gate: ``python -m repro.verify`` over bounded suite slices."""

import pytest

from repro.verify.__main__ import main


class TestVerifyCLI:
    def test_clean_slice_exits_zero(self, capsys):
        rc = main(["--families", "control", "--count", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out
        assert "control[00]" in out

    def test_baseline_infos_are_printable(self, capsys):
        rc = main(["--families", "lasso", "--count", "1", "--baseline",
                   "--show", "info"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "over-provisioned-depth" in out

    def test_explicit_width_override(self, capsys):
        rc = main(["--families", "control", "--count", "1", "--c", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "C=4" in out

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--families", "nonexistent"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("width", ["0", "-3", "two"])
    def test_batch_below_one_is_usage_error(self, width, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--families", "control", "--count", "1", "--codegen",
                  "--batch", width])
        assert excinfo.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_batch_one_lifts_width_one_only(self, capsys):
        rc = main(["--families", "control", "--count", "1", "--codegen",
                   "--batch", "1", "--show", "info"])
        out = capsys.readouterr().out
        assert rc == 0
        coverage = [line for line in out.splitlines()
                    if "codegen-coverage" in line]
        assert coverage
        for line in coverage:
            assert "at B=1;" in line and "B=2" not in line
