"""Every command of the golden answer corpus gives its recorded exit code and
output digest (``tests/golden_corpus.py`` holds the commands and regenerates
the corpus)."""

import golden_corpus


def test_every_command_matches_the_corpus(tmp_path):
    assert golden_corpus.mismatches(tmp_path) == []
