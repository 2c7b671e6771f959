"""Byte identity of the command line on the benchmark workloads' inputs.

Each run's exit code and the digests of its stdout and stderr must equal the
stored corpus, once in one session and once with every memo emptied before
each run, since a memo can change an exit code. golden_transcripts.py says
how to regenerate the corpus.
"""

import shlex

import pytest

from golden_transcripts import read_corpus, replay


@pytest.mark.parametrize("fresh", [False, True], ids=["one-session", "fresh-memos"])
def test_replay_matches_the_golden_corpus(fresh):
    stored = read_corpus()
    got = replay(fresh)
    assert [line.split()[:4] for line, _ in got] == [line.split()[:4] for line in stored]
    mismatches = [f"cuspidal {shlex.join(argv)}\n  got    {line}\n  stored {want}"
                  for (line, argv), want in zip(got, stored) if line != want]
    assert not mismatches, f"{len(mismatches)} runs differ:\n" + "\n".join(mismatches[:10])
