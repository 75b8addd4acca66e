"""Test-session setup shared by every module.

Hypothesis reports a failing example through ``hypothesis.extra._patching``,
which imports ``libcst`` where it is installed; that import raises a
``DeprecationWarning``, an error under ``pyproject.toml``'s
``filterwarnings``, and the run ends in ``INTERNALERROR`` instead of
printing the falsifying example.  Importing the module once here, with
that warning ignored, lets the report through; no filter changes.  The
module is private, so it may be absent.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
