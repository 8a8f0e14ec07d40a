import os

from setuptools import Extension, setup

# The C source is committed: Cython generated it from _simplex_core.pyx,
# and it needs only Python.h.  After editing the .pyx, regenerate it with
#     cython -3 src/geomoment/_simplex_core.pyx
# -ffp-contract=off keeps the compiled kernel bit-identical to the numpy
# fallback (no fused multiply-adds).
ext_modules = []
if not os.environ.get("GEOMOMENT_SKIP_EXT"):
    ext_modules = [Extension("geomoment._simplex_core", ["src/geomoment/_simplex_core.c"],
                             extra_compile_args=["-O3", "-ffp-contract=off"])]

setup(ext_modules=ext_modules)
