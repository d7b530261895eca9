// Runtime ISA dispatch for the hot floating-point kernels: GCC emits an
// AVX2 and a baseline clone of a function marked FAST_AVX2_CLONES and picks
// one at load time. The AVX2 target does not enable FMA, so a clone rounds
// every multiply and add as the baseline does. Other compilers and targets
// build the plain function. TSan builds do too: the clone resolver runs
// before the TSan runtime is initialized and crashes.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define FAST_AVX2_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define FAST_AVX2_CLONES
#endif
