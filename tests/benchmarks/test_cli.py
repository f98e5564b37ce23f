"""CLI surface tests: the help text advertises every entry point, and removed
flags are rejected rather than ignored."""

import contextlib
import io

import pytest

from repro.benchmarks import cli


def render_help():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    return buffer.getvalue()


class TestHelp:
    def test_serve_is_a_figure_choice(self):
        help_text = render_help()
        assert "serve" in help_text
        assert "--port" in help_text

    def test_serve_knobs_are_documented(self):
        help_text = render_help()
        for flag in ("--host", "--ttl", "--rate", "--burst", "--persist-dir"):
            assert flag in help_text, flag

    def test_benchmark_figures_still_listed(self):
        help_text = render_help()
        for figure in ("figure16", "figure17", "figure18", "pruning"):
            assert figure in help_text, figure


@pytest.mark.parametrize(
    "argv",
    [["figure16", "--backend", "numpy"], ["--stress"]],
    ids=["backend", "stress"],
)
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
