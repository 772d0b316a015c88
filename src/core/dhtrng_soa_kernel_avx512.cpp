// AVX-512 tier of the SoA step kernel: the same shared source as the other
// tiers (dhtrng_soa_engine.inc), recompiled with -mavx512f -mavx512dq
// -mavx512vl -mfma -mprefer-vector-width=512 so the elementwise lane loops
// vectorize 8 doubles wide and the guarded mask-packing paths use __mmask8
// compares and mask moves.  -ffp-contract=off keeps the per-lane arithmetic
// bit-identical to the baseline tier; only reached after the runtime CPU
// check behind support::simd::active_tier().
#if defined(__x86_64__) || defined(_M_X64)

#define DHTRNG_KERNEL_NS avx512_k
#include "core/dhtrng_soa_engine.inc"
#undef DHTRNG_KERNEL_NS

#endif
