// AVX-512 tier of the fast-noise kernels: the width-generic x86 kernel
// source (simd_noise_x86.inc) over 8-wide zmm vectors with __mmask8 masks.
// Compiled with -mavx512f -mavx512dq -mavx512vl -mfma; only reached after
// the runtime CPU check in simd_noise.cpp.
#if defined(__x86_64__) || defined(_M_X64)

#define DHTRNG_KERNEL_NS avx512_k
#define DHTRNG_X86_VEC VecAvx512
#include "support/simd_noise_x86.inc"
#undef DHTRNG_X86_VEC
#undef DHTRNG_KERNEL_NS

#endif
