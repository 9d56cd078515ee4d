"""The seeded corpus of in-process ``psg`` calls (tests/corpus.py) against
its recorded digest: a change of any call's exit code, stdout or stderr
moves it.  A deliberate change of output re-records the digest and says
so in CHANGES.md; ``PYTHONPATH=src python tests/corpus.py --seed 0 --size
400 --against DIR``, DIR a checkout of the other tree, shows which calls
moved."""

import platform
from pathlib import Path

import pytest

import corpus
from psemigroups import cli

SEED, SIZE = 0, 400
# argparse's wording and wrapping differ between Python versions
DIGESTS = {
    "3.10.13": "3c3bb4a57d8bd9ae26686447113687b2fc0cdab63cefbc7bb52891c0ab90bc0a",
    "3.11.7": "3c3bb4a57d8bd9ae26686447113687b2fc0cdab63cefbc7bb52891c0ab90bc0a",
    "3.12.1": "3c3bb4a57d8bd9ae26686447113687b2fc0cdab63cefbc7bb52891c0ab90bc0a",
    "3.13.0": "d19ca8be2668f6de7d57978ed04c44e514ffc71cad4b5c9e435ebfa4210583a0",
}


def test_corpus_draws_every_command_with_its_flags():
    assert corpus.LEAVES.keys() == cli._COMMANDS.keys()
    for command, (_, flags, _) in cli._COMMANDS.items():
        needed, optional = corpus.LEAVES[command]
        assert set(needed) == {flag for flag, (_, default, _) in flags.items()
                               if default is cli._NEEDED}, command
        assert set(needed + optional) == set(flags), command
    calls = [" ".join(argv) for argv in corpus.calls(SEED, SIZE)]
    for command in cli._COMMANDS:
        assert any(call.startswith(f"{command} --") for call in calls), command
    for fmt in (*corpus.FORMATS, "xml"):
        assert any(f"--format {fmt}" in call for call in calls), fmt
    assert any(call.endswith(" -h") for call in calls) and "-h" in calls


def test_corpus_digest_is_the_recorded_one():
    version = platform.python_version()
    if version not in DIGESTS:
        pytest.skip(f"no corpus digest recorded for Python {version}")
    assert corpus.digest(SEED, SIZE) == DIGESTS[version]


def test_no_call_differs_against_this_checkout():
    # the child process imports this checkout's package too
    root = Path(__file__).resolve().parent.parent
    assert corpus.against(root, 1, 40) == {}


def test_differing_calls_are_grouped_by_how_and_by_command():
    theirs = ['["a"]\t0\tx\ty', '["b"]\t3\tx\ty', '["c"]\t0\tx\ty', '["d"]\t0\tx\ty']
    ours = ['["a"]\t0\tx\ty', '["b"]\t2\tz\tw', '["c"]\t0\tz\ty', '["d"]\t0\tx\tw']
    groups = corpus.group(["sums", "table", "table", "sums"], ours, theirs)
    assert groups == {
        "exit changed": {"table": [ours[1]]},
        "stdout changed, same exit": {"table": [ours[2]]},
        "stderr changed only": {"sums": [ours[3]]},
    }
    assert list(corpus.report(groups, 4)) == [
        "3 of 4 calls differ",
        "exit changed: 1", "  table: 1", '    ["b"]',
        "stdout changed, same exit: 1", "  table: 1", '    ["c"]',
        "stderr changed only: 1", "  sums: 1", '    ["d"]',
    ]
