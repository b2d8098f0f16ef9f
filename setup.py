from setuptools import Extension, setup

# The compiled kernels are optional: without a C compiler the build skips
# them and latflow.backend selects the numpy fallback at import.
setup(
    ext_modules=[
        Extension(
            "latflow._ckernels",
            ["src/latflow/_ckernels.c"],
            # no fused multiply-add: each float64 row is summed in order,
            # with a rounding after every multiply and every add; and every
            # loop on a 32-byte boundary, so that a kernel's speed does not
            # hang on where the code placed before it happens to end
            extra_compile_args=["-O3", "-ffp-contract=off", "-falign-loops=32"],
            optional=True,
        )
    ]
)
