"""Set-up shared by every test directory, ``tests`` and ``bench`` alike.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` from its report hook.  That imports libcst,
which raises a DeprecationWarning (``mypy_extensions.TypedDict``), and the
``error::DeprecationWarning`` filter in pyproject.toml turns it into an
exception outside any test: pytest stops with INTERNALERROR and the tests
after the failure never run.  Importing the module here once, with that
warning ignored for this import only, leaves the hook nothing to import.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the hook skips its patch file too
        pass
