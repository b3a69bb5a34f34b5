"""The identity corpus of ``identity.py``: every case at N <= 256 reproduces
the outputs recorded in ``tests/data/identity_manifest.json``."""

import identity


def test_every_case_is_recorded_once():
    names = [case.name for case in identity.CASES]
    assert len(set(names)) == len(names)
    assert set(names) == set(identity.load_manifest())


def test_the_identity_corpus_reproduces_its_manifest():
    results = identity.check()
    assert results
    changed = {name: detail for name, (status, detail) in results.items()
               if status == "changed"}
    assert changed == {}
