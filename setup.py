"""Build script: compiles the optional speedup extension.

The package is pure Python plus one Cython module with two hot kernels
(fused optimizer step, sparse row updates).  If the
extension cannot be built the install still succeeds and the package
falls back to the numpy implementations in caseline._kernels_py.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class BuildFailed(Exception):
    pass


class optional_build_ext(build_ext):
    """build_ext that tolerates a missing compiler."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # compiler missing entirely
            raise BuildFailed(str(exc)) from exc

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:
            raise BuildFailed(str(exc)) from exc


def ext_modules():
    try:
        import numpy
        from Cython.Build import cythonize
    except ImportError:
        return []
    # -ffp-contract=off keeps the compiled float kernels bit-compatible
    # with the numpy fallbacks (no FMA re-rounding).
    ext = Extension(
        "caseline._speedups",
        ["src/caseline/_speedups.pyx"],
        include_dirs=[numpy.get_include()],
        extra_compile_args=["-O3", "-ffp-contract=off"],
        define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
    )
    return cythonize([ext], language_level=3)


def run_setup(with_ext: bool):
    setup(
        ext_modules=ext_modules() if with_ext else [],
        cmdclass={"build_ext": optional_build_ext} if with_ext else {},
    )


if os.environ.get("CASELINE_NO_EXTENSION"):
    run_setup(with_ext=False)
else:
    try:
        run_setup(with_ext=True)
    except BuildFailed:
        print("WARNING: speedup extension failed to build; "
              "installing with pure-Python kernels")
        run_setup(with_ext=False)
