import inspect

import latflow


def test_all_lists_exactly_the_exported_names():
    exported = {
        name for name, obj in vars(latflow).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert all(hasattr(latflow, name) for name in latflow.__all__)
    assert sorted(latflow.__all__) == sorted(exported)
    assert len(latflow.__all__) == len(set(latflow.__all__)) == 65
