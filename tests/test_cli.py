"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_info_command(self, capsys):
        assert main(["info", "--preset", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "preset: smoke" in output
        assert "array" in output

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--preset", "galactic"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_fig2a_runs_and_writes_json(self, capsys, tmp_path):
        output_path = tmp_path / "fig2a.json"
        assert main(["fig2a", "--preset", "smoke", "--output", str(output_path)]) == 0
        stdout = capsys.readouterr().out
        assert "Fig. 2a" in stdout
        payload = json.loads(output_path.read_text())
        assert payload["figure"] == "2a"
        assert len(payload["rows"]) > 0

    def test_fig3_runs_with_chip_override(self, capsys):
        assert main(["fig3", "--preset", "smoke", "--chips", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "reduce-max" in stdout
        assert "Pareto" in stdout


class TestBackendCli:
    def test_backend_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--preset", "smoke", "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_campaign_reports_resolved_backend(self, capsys, tmp_path):
        assert (
            main(
                [
                    "campaign",
                    "--preset",
                    "smoke",
                    "--chips",
                    "2",
                    "--policy",
                    "fixed",
                    "--fixed-epochs",
                    "0.25",
                    "--campaign-dir",
                    str(tmp_path / "campaigns"),
                ]
            )
            == 0
        )
        assert "compute backend: numpy" in capsys.readouterr().out
