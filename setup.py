"""Build script.

The compiled row-reduction kernel is built from the shipped C source
``src/koszul_lift/_modp.c`` and is optional: without a C compiler the build
still succeeds and the package falls back to the pure Python kernel at
import time.  Regenerate the C after editing the ``.pyx`` with
``cython -3 src/koszul_lift/_modp.pyx``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("koszul_lift._modp", ["src/koszul_lift/_modp.c"], optional=True)
    ]
)
