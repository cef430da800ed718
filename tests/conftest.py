"""Test-session setup shared by every test module."""

import warnings

# On a failing property, hypothesis imports hypothesis.extra._patching to
# print its falsifying example; that module imports libcst, which warns that
# mypy_extensions.TypedDict is deprecated, and under `pytest -W error` the
# warning ends the run in INTERNALERROR instead of a report.  Importing it
# once here with that warning ignored keeps -W error in force everywhere else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is absent: hypothesis prints the example without it
        pass
