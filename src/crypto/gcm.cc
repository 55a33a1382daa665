#include "crypto/gcm.h"

#include <algorithm>
#include <cstring>

namespace lake::crypto {

namespace {

/**
 * Reduction of the four bits shifted out of the low end of a GHASH
 * product, pre-shifted into the top 16 bits of the high half: entry r
 * is the sum of R = 0xe1 || 0^120 shifted right by (3 - bit) for each
 * set bit of r.
 */
constexpr std::uint64_t kReduce4[16] = {
    0x0000ULL << 48, 0x1c20ULL << 48, 0x3840ULL << 48, 0x2460ULL << 48,
    0x7080ULL << 48, 0x6ca0ULL << 48, 0x48c0ULL << 48, 0x54e0ULL << 48,
    0xe100ULL << 48, 0xfd20ULL << 48, 0xd940ULL << 48, 0xc560ULL << 48,
    0x9180ULL << 48, 0x8da0ULL << 48, 0xa9c0ULL << 48, 0xb5e0ULL << 48,
};

std::uint64_t
loadBe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v = (v << 8) | p[i];
    return v;
}

void
storeBe64(std::uint8_t *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

void
inc32(std::uint8_t block[16])
{
    for (int i = 15; i >= 12; --i) {
        if (++block[i] != 0)
            break;
    }
}

/** J0 = IV || 0^31 || 1 for 96-bit IVs. */
void
initialCounter(const std::uint8_t *iv, std::uint8_t j0[16])
{
    std::memcpy(j0, iv, kGcmIvBytes);
    std::memset(j0 + kGcmIvBytes, 0, 16 - kGcmIvBytes);
    j0[15] = 1;
}

} // namespace

AesGcm::AesGcm(const std::uint8_t *key, std::size_t key_bytes)
    : aes_(key, key_bytes)
{
    std::uint8_t h[16] = {};
    aes_.encryptBlock(h, h);

    // Entry 8 (x^0) is H; 4, 2 and 1 are H·x, H·x^2 and H·x^3 (a right
    // shift with reduction in the reflected field); the rest are sums.
    std::uint64_t vh = loadBe64(h);
    std::uint64_t vl = loadBe64(h + 8);
    hh_[0] = hl_[0] = 0;
    hh_[8] = vh;
    hl_[8] = vl;
    for (int i = 4; i > 0; i >>= 1) {
        std::uint64_t reduce = (vl & 1) ? 0xe1ULL << 56 : 0;
        vl = (vh << 63) | (vl >> 1);
        vh = (vh >> 1) ^ reduce;
        hh_[i] = vh;
        hl_[i] = vl;
    }
    for (int i = 2; i <= 8; i *= 2) {
        for (int j = 1; j < i; ++j) {
            hh_[i + j] = hh_[i] ^ hh_[j];
            hl_[i + j] = hl_[i] ^ hl_[j];
        }
    }
}

void
AesGcm::mulH(std::uint64_t y[2]) const
{
    // Horner's rule over y's 32 nibbles from the highest power of x
    // (the low nibble of byte 15) down: z = z·x^4 + nibble·H.
    std::uint64_t zh = 0;
    std::uint64_t zl = 0;
    for (int half = 1; half >= 0; --half) {
        std::uint64_t word = y[half];
        for (int k = 0; k < 16; ++k, word >>= 4) {
            std::uint64_t rem = zl & 0xf;
            zl = (zh << 60) | (zl >> 4);
            zh = (zh >> 4) ^ kReduce4[rem];
            std::size_t nibble = word & 0xf;
            zh ^= hh_[nibble];
            zl ^= hl_[nibble];
        }
    }
    y[0] = zh;
    y[1] = zl;
}

void
AesGcm::absorb(std::uint64_t y[2], const std::uint8_t *data,
               std::size_t len) const
{
    for (std::size_t off = 0; off < len; off += 16) {
        const std::uint8_t *block = data + off;
        std::uint8_t padded[16] = {};
        if (len - off < 16) {
            std::memcpy(padded, block, len - off);
            block = padded;
        }
        y[0] ^= loadBe64(block);
        y[1] ^= loadBe64(block + 8);
        mulH(y);
    }
}

void
AesGcm::computeTag(const std::uint8_t j0[16], const std::uint8_t *aad,
                   std::size_t aad_len, const std::uint8_t *text,
                   std::size_t text_len,
                   std::uint8_t out[kGcmTagBytes]) const
{
    std::uint64_t y[2] = {};
    absorb(y, aad, aad_len);
    absorb(y, text, text_len);
    y[0] ^= static_cast<std::uint64_t>(aad_len) * 8;
    y[1] ^= static_cast<std::uint64_t>(text_len) * 8;
    mulH(y);

    std::uint8_t ek_j0[16];
    aes_.encryptBlock(j0, ek_j0);
    storeBe64(out, y[0]);
    storeBe64(out + 8, y[1]);
    for (std::size_t i = 0; i < kGcmTagBytes; ++i)
        out[i] ^= ek_j0[i];
}

void
AesGcm::ctr(const std::uint8_t j0[16], const std::uint8_t *in,
            std::size_t len, std::uint8_t *out) const
{
    std::uint8_t j[16];
    std::memcpy(j, j0, 16);
    std::uint8_t keystream[16];
    for (std::size_t off = 0; off < len; off += 16) {
        inc32(j);
        aes_.encryptBlock(j, keystream);
        std::size_t n = std::min<std::size_t>(16, len - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] = static_cast<std::uint8_t>(in[off + i] ^
                                                     keystream[i]);
    }
}

void
AesGcm::encrypt(const std::uint8_t *iv, const std::uint8_t *plain,
                std::size_t len, const std::uint8_t *aad,
                std::size_t aad_len, std::uint8_t *cipher,
                std::uint8_t tag[kGcmTagBytes]) const
{
    std::uint8_t j0[16];
    initialCounter(iv, j0);
    ctr(j0, plain, len, cipher);
    computeTag(j0, aad, aad_len, cipher, len, tag);
}

bool
AesGcm::decrypt(const std::uint8_t *iv, const std::uint8_t *cipher,
                std::size_t len, const std::uint8_t *aad,
                std::size_t aad_len, const std::uint8_t tag[kGcmTagBytes],
                std::uint8_t *plain) const
{
    std::uint8_t j0[16];
    initialCounter(iv, j0);
    std::uint8_t expect[kGcmTagBytes];
    computeTag(j0, aad, aad_len, cipher, len, expect);

    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < kGcmTagBytes; ++i)
        diff |= static_cast<std::uint8_t>(tag[i] ^ expect[i]);

    // Verify before decrypting: unverified plaintext is never released.
    if (diff != 0) {
        if (len)
            std::memset(plain, 0, len);
        return false;
    }
    ctr(j0, cipher, len, plain);
    return true;
}

} // namespace lake::crypto
