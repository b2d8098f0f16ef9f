from setuptools import Extension, setup

# The compiled kernels are optional: without a C compiler the build skips
# them and latflow.backend selects the numpy fallback at import.
setup(
    ext_modules=[
        Extension(
            "latflow._ckernels",
            ["src/latflow/_ckernels.c"],
            # no -ffast-math: the lookup's key guard needs IEEE rint and NaN
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
