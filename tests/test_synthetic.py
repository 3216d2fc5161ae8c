from importlib import resources

from tests.synthetic import DEFAULT_SEED, synthetic_dataset, write_synthetic_csvs


def test_generator_is_deterministic():
    a = synthetic_dataset(DEFAULT_SEED)
    b = synthetic_dataset(DEFAULT_SEED)
    assert a.patents == b.patents
    assert a.trial_sets == b.trial_sets
    assert a.field_tests == b.field_tests


def test_different_seed_differs():
    a = synthetic_dataset(DEFAULT_SEED)
    b = synthetic_dataset(DEFAULT_SEED + 1)
    assert a.patents != b.patents


def test_bundled_csvs_match_regeneration(tmp_path):
    paths = write_synthetic_csvs(tmp_path)
    bundled = resources.files("cornrate.data") / "synthetic"
    for name, path in paths.items():
        assert path.read_bytes() == (bundled / path.name).read_bytes(), name


def test_fixture_shape():
    ds = synthetic_dataset()
    assert len(ds.patents) == 70
    assert len(ds.trial_sets) == 70
    assert ds.field_tests
    # Every citation points at an earlier-or-same-year patent.
    for p in ds.patents.values():
        for cited in p.cited_patents:
            assert ds.patents[cited].filed_year <= p.filed_year
            assert ds.patents[cited].granted_year <= p.granted_year
