from setuptools import Extension, setup

# The compiled pivot kernel is hand-written C that needs only Python.h.
# -ffp-contract=off keeps it bit-identical to the numpy kernel (no fused
# multiply-adds).  optional=True: where it does not compile, the build warns
# and the package runs on the numpy kernel.
setup(ext_modules=[Extension("geomoment._simplex_core", ["src/geomoment/_simplex_core.c"],
                             extra_compile_args=["-O3", "-ffp-contract=off"],
                             optional=True)])
