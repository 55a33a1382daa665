// The host-speed reference HostTimer scales host times by (harness.h).
//
// On a shared machine, co-tenants slow this program by up to 1.8x for
// minutes at a time, and by different amounts for different kinds of
// code: streaming loads and stores slow most, register-only chains and
// random reads from beyond the caches least. No single loop tracks
// every workload, so the reference is a fixed mix of small kernels, one
// per kind of work the workloads do. The compute pass: a float matrix
// product over L1-resident operands (the MLPs), a branchy bitwise
// GF(2^128) multiply (GHASH), four-table lookups (AES rounds), a
// read-modify-write sweep over 256 KiB (extent and feature buffers)
// and a shift-xor chain (hashing, bookkeeping). The memory pass adds
// random reads from 16 MiB (feature windows and simulator state beyond
// L2), which take a little less time than the compute pass. A workload
// whose data stays within L2 (crypt_bulk's 128 KiB extents) is scaled
// by the compute pass, the others by the memory pass. The pass's CPU
// time, measured next to the work it scales, gives the scale factor.
// The code here is the benchmark's own and never calls into LAKE, so a
// change to LAKE does not move the reference.

#include <array>
#include <cstdint>
#include <vector>

#include "harness.h"

namespace lakebench {

namespace {

/**
 * About the compute pass's and the random reads' CPU time on an idle
 * core of the reference host (a 4-vCPU KVM guest on an AVX-512 Intel
 * Xeon), ns. They set the scale of the reported host times, not their
 * spread.
 */
constexpr double kComputeNs = 6e6;
constexpr double kReadsNs = 6e6;

volatile std::uint64_t g_sink;

/** 150 products of a 32x64 by a 64x64 float matrix. */
void
matrixProduct()
{
    static std::array<float, 32 * 64> a;
    static std::array<float, 64 * 64> w;
    static std::array<float, 32 * 64> y;
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<float>(i % 7) * 0.25f;
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<float>(i % 5) * 0.125f;
    for (int p = 0; p < 150; ++p) {
        for (int r = 0; r < 32; ++r)
            for (int c = 0; c < 64; ++c) {
                float sum = 0.0f;
                for (int k = 0; k < 64; ++k)
                    sum += a[r * 64 + k] * w[k * 64 + c];
                y[r * 64 + c] = sum;
            }
        // Feed one output back, so no product can be skipped.
        a[p % a.size()] = y[(p * 7) % y.size()] * 1e-3f;
    }
    g_sink = static_cast<std::uint64_t>(y[5]);
}

/** 1,500 bit-serial GF(2^128) multiplies, each feeding the next. */
void
gfMultiply()
{
    std::uint64_t xh = 0x0123456789abcdefull, xl = 0xfedcba9876543210ull;
    const std::uint64_t hh = 0x66e94bd4ef8a2c3bull, hl = 0x884cfa59ca342b2eull;
    for (int it = 0; it < 1500; ++it) {
        std::uint64_t zh = 0, zl = 0, vh = hh, vl = hl;
        for (int i = 0; i < 128; ++i) {
            const std::uint64_t bit =
                i < 64 ? (xh >> (63 - i)) & 1 : (xl >> (127 - i)) & 1;
            if (bit) {
                zh ^= vh;
                zl ^= vl;
            }
            const bool lsb = vl & 1;
            vl = (vl >> 1) | (vh << 63);
            vh >>= 1;
            if (lsb)
                vh ^= 0xe100000000000000ull;
        }
        xh = zh ^ static_cast<std::uint64_t>(it);
        xl = zl;
    }
    g_sink = xh ^ xl;
}

/** 150,000 rounds of four-table lookups over a 4-word state. */
void
tableLookups()
{
    static std::array<std::uint32_t, 256> t0, t1, t2, t3;
    for (std::uint32_t i = 0; i < 256; ++i) {
        t0[i] = i * 0x01010101u ^ 0x9e37u;
        t1[i] = t0[i] * 3;
        t2[i] = t0[i] * 5;
        t3[i] = t0[i] * 7;
    }
    std::uint32_t s0 = 1, s1 = 2, s2 = 3, s3 = 4;
    for (std::uint32_t i = 0; i < 150000; ++i) {
        const std::uint32_t n0 = t0[s0 & 255] ^ t1[(s1 >> 8) & 255] ^
                                 t2[(s2 >> 16) & 255] ^ t3[s3 >> 24];
        const std::uint32_t n1 = t0[s1 & 255] ^ t1[(s2 >> 8) & 255] ^
                                 t2[(s3 >> 16) & 255] ^ t3[s0 >> 24];
        const std::uint32_t n2 = t0[s2 & 255] ^ t1[(s3 >> 8) & 255] ^
                                 t2[(s0 >> 16) & 255] ^ t3[s1 >> 24];
        const std::uint32_t n3 = t0[s3 & 255] ^ t1[(s0 >> 8) & 255] ^
                                 t2[(s1 >> 16) & 255] ^ t3[s2 >> 24];
        s0 = n0 ^ i;
        s1 = n1;
        s2 = n2;
        s3 = n3;
    }
    g_sink = s0 ^ s1 ^ s2 ^ s3;
}

/** 60 read-modify-write sweeps over 256 KiB of floats. */
void
sweep()
{
    static std::vector<float> m(65536, 1.0f);
    for (int r = 0; r < 60; ++r)
        for (float &x : m)
            x = x * 0.9999f + 0.5f;
    g_sink = static_cast<std::uint64_t>(m[7]);
}

/** A chain of 500,000 xorshift steps. */
void
shiftXor()
{
    std::uint64_t x = 1;
    for (int i = 0; i < 500000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    g_sink = x;
}

/** 400,000 independent reads at random offsets of a 16 MiB table. */
void
randomReads()
{
    static std::vector<std::uint64_t> table(2 << 20, 1);
    std::uint64_t x = 5, sum = 0;
    for (int i = 0; i < 400000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += table[x & (table.size() - 1)];
    }
    g_sink = sum;
}

void
pass(Reference ref)
{
    matrixProduct();
    gfMultiply();
    tableLookups();
    sweep();
    shiftXor();
    if (ref == Reference::Memory)
        randomReads();
}

/** CPU time of one pass of @p ref, measured now, ns. */
std::int64_t
referenceNs(Reference ref)
{
    // The first pass faults the tables in; it is not timed.
    static const bool warm = (pass(Reference::Memory), true);
    (void)warm;
    const std::int64_t t0 = cpuNs();
    pass(ref);
    return cpuNs() - t0;
}

} // namespace

HostTimer::HostTimer(bool scale, Reference ref)
    : scale_(scale), ref_(ref), factor_(measure()), start_(cpuNs())
{}

double
HostTimer::measure() const
{
    if (!scale_)
        return 1.0;
    const double idle =
        ref_ == Reference::Memory ? kComputeNs + kReadsNs : kComputeNs;
    return idle / static_cast<double>(referenceNs(ref_));
}

HostSlice
HostTimer::split()
{
    HostSlice s;
    s.ns = cpuNs() - start_ - excluded_;
    const double before = factor_;
    factor_ = measure();
    s.factor = (before + factor_) / 2.0;
    excluded_ = 0;
    start_ = cpuNs();
    return s;
}

} // namespace lakebench
