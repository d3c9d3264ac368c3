import pytest

import golden_cli

_RECORD = golden_cli.load()


def test_the_record_names_every_run_once():
    names = [name for name, _, _ in golden_cli.RUNS]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(_RECORD)


@pytest.mark.parametrize("name, command, config", golden_cli.RUNS,
                         ids=[name for name, _, _ in golden_cli.RUNS])
def test_cli_run_matches_its_golden_record(monkeypatch, name, command, config):
    # Rewrite the record with `python tests/golden_cli.py` only when a run's
    # output is meant to move; `--diff` names the runs that did.
    monkeypatch.chdir(golden_cli.ROOT)
    assert golden_cli.replay(command, config) == _RECORD[name]
