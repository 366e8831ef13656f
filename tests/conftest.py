import pytest

from expreg.cli import main as cli_main

from helpers import FIXTURES


@pytest.fixture
def run_cli(capsys):
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def fixture_path():
    return lambda name: str(FIXTURES / name)
