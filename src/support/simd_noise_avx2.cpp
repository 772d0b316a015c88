// AVX2 tier of the fast-noise kernels: the width-generic x86 kernel source
// (simd_noise_x86.inc) over 4-wide ymm vectors.  Compiled with -mavx2
// -mfma; only reached after the runtime CPU check in simd_noise.cpp.
#if defined(__x86_64__) || defined(_M_X64)

#define DHTRNG_KERNEL_NS avx2_k
#define DHTRNG_X86_VEC VecAvx2
#include "support/simd_noise_x86.inc"
#undef DHTRNG_X86_VEC
#undef DHTRNG_KERNEL_NS

#endif
