// Tests for AES, AES-GCM (against NIST vectors and a byte-wise /
// bit-serial reference model), the cipher engines, and first-use
// kernel registration from concurrent stacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/lake.h"
#include "crypto/aes.h"
#include "crypto/engines.h"
#include "crypto/gcm.h"
#include "ml/backends.h"

namespace lake::crypto {
namespace {

// ---- reference model --------------------------------------------------
//
// The straightforward FIPS 197 / SP 800-38D formulation: AES one byte at
// a time (SubBytes, ShiftRows, MixColumns over a column-major state) and
// GHASH as 128 bit-serial shift-and-add steps. The production cipher is
// table-driven; these tests hold it bit-identical to this model.

constexpr std::uint8_t kRefSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

/** GF(2^8) multiply by 2. */
std::uint8_t
refXtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

/** Byte-wise AES: the key schedule as bytes, one round step at a time. */
class RefAes
{
  public:
    RefAes(const std::uint8_t *key, std::size_t key_bytes)
    {
        int nk = static_cast<int>(key_bytes / 4);
        rounds_ = nk + 6;
        int total = 4 * (rounds_ + 1);
        std::memcpy(w_, key, key_bytes);
        std::uint8_t rcon = 1;
        for (int i = nk; i < total; ++i) {
            std::uint8_t t[4];
            std::memcpy(t, w_ + 4 * (i - 1), 4);
            if (i % nk == 0) {
                std::uint8_t t0 = t[0];
                t[0] = static_cast<std::uint8_t>(kRefSbox[t[1]] ^ rcon);
                t[1] = kRefSbox[t[2]];
                t[2] = kRefSbox[t[3]];
                t[3] = kRefSbox[t0];
                rcon = refXtime(rcon);
            } else if (nk > 6 && i % nk == 4) {
                for (auto &b : t)
                    b = kRefSbox[b];
            }
            for (int b = 0; b < 4; ++b)
                w_[4 * i + b] =
                    static_cast<std::uint8_t>(w_[4 * (i - nk) + b] ^ t[b]);
        }
    }

    void
    encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const
    {
        // State is column-major: s[4c + r] is row r, column c.
        std::uint8_t s[16];
        std::memcpy(s, in, 16);
        auto addRoundKey = [&](int round) {
            for (int i = 0; i < 16; ++i)
                s[i] ^= w_[16 * round + i];
        };
        auto subBytes = [&] {
            for (auto &b : s)
                b = kRefSbox[b];
        };
        auto shiftRows = [&] {
            std::uint8_t t[16];
            std::memcpy(t, s, 16);
            for (int r = 1; r < 4; ++r)
                for (int c = 0; c < 4; ++c)
                    s[4 * c + r] = t[4 * ((c + r) % 4) + r];
        };
        auto mixColumns = [&] {
            for (int c = 0; c < 4; ++c) {
                std::uint8_t *col = s + 4 * c;
                std::uint8_t a[4] = {col[0], col[1], col[2], col[3]};
                std::uint8_t all =
                    static_cast<std::uint8_t>(a[0] ^ a[1] ^ a[2] ^ a[3]);
                for (int r = 0; r < 4; ++r)
                    col[r] = static_cast<std::uint8_t>(
                        a[r] ^ all ^
                        refXtime(static_cast<std::uint8_t>(
                            a[r] ^ a[(r + 1) % 4])));
            }
        };

        addRoundKey(0);
        for (int round = 1; round < rounds_; ++round) {
            subBytes();
            shiftRows();
            mixColumns();
            addRoundKey(round);
        }
        subBytes();
        shiftRows();
        addRoundKey(rounds_);
        std::memcpy(out, s, 16);
    }

  private:
    int rounds_;
    std::uint8_t w_[240]; //!< round keys, 16 bytes per round
};

/** GF(2^128) multiply, bit-serial: x = x * y in GCM's reflected field. */
void
refGf128Mul(std::uint8_t x[16], const std::uint8_t y[16])
{
    std::uint8_t z[16] = {};
    std::uint8_t v[16];
    std::memcpy(v, y, 16);
    for (int i = 0; i < 128; ++i) {
        if ((x[i / 8] >> (7 - i % 8)) & 1) {
            for (int j = 0; j < 16; ++j)
                z[j] ^= v[j];
        }
        // v = v >> 1, with reduction by R = 0xe1 || 0^120.
        bool lsb = v[15] & 1;
        for (int j = 15; j > 0; --j)
            v[j] = static_cast<std::uint8_t>((v[j] >> 1) |
                                             ((v[j - 1] & 1) << 7));
        v[0] >>= 1;
        if (lsb)
            v[0] ^= 0xe1;
    }
    std::memcpy(x, z, 16);
}

/** SP 800-38D GCM-AE over RefAes and refGf128Mul (96-bit IVs). */
struct RefGcmResult
{
    std::vector<std::uint8_t> cipher;
    std::uint8_t tag[16];
};

RefGcmResult
refGcmEncrypt(const std::vector<std::uint8_t> &key,
              const std::uint8_t iv[12],
              const std::vector<std::uint8_t> &plain,
              const std::vector<std::uint8_t> &aad)
{
    RefAes aes(key.data(), key.size());
    std::uint8_t h[16] = {};
    aes.encryptBlock(h, h);
    std::uint8_t j0[16] = {};
    std::memcpy(j0, iv, 12);
    j0[15] = 1;

    RefGcmResult r;
    r.cipher.resize(plain.size());
    std::uint8_t j[16];
    std::memcpy(j, j0, 16);
    for (std::size_t off = 0; off < plain.size(); off += 16) {
        for (int i = 15; i >= 12 && ++j[i] == 0; --i) {
        }
        std::uint8_t ks[16];
        aes.encryptBlock(j, ks);
        for (std::size_t i = 0; i < 16 && off + i < plain.size(); ++i)
            r.cipher[off + i] =
                static_cast<std::uint8_t>(plain[off + i] ^ ks[i]);
    }

    std::uint8_t y[16] = {};
    auto absorb = [&](const std::vector<std::uint8_t> &data) {
        for (std::size_t off = 0; off < data.size(); off += 16) {
            for (std::size_t i = 0; i < 16 && off + i < data.size(); ++i)
                y[i] ^= data[off + i];
            refGf128Mul(y, h);
        }
    };
    absorb(aad);
    absorb(r.cipher);
    std::uint64_t bits[2] = {aad.size() * 8, plain.size() * 8};
    for (int i = 0; i < 16; ++i)
        y[i] ^= static_cast<std::uint8_t>(bits[i / 8] >> (8 * (7 - i % 8)));
    refGf128Mul(y, h);

    std::uint8_t ek_j0[16];
    aes.encryptBlock(j0, ek_j0);
    for (int i = 0; i < 16; ++i)
        r.tag[i] = static_cast<std::uint8_t>(y[i] ^ ek_j0[i]);
    return r;
}

std::vector<std::uint8_t>
randomBytes(std::mt19937_64 &rng, std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng());
    return out;
}

std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<std::uint8_t>(
            std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
    return out;
}

std::string
toHex(const std::uint8_t *data, std::size_t n)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(digits[data[i] >> 4]);
        out.push_back(digits[data[i] & 0xf]);
    }
    return out;
}

TEST(AesTest, Fips197Aes128Vector)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    auto plain = fromHex("00112233445566778899aabbccddeeff");
    Aes aes(key.data(), key.size());
    EXPECT_EQ(aes.rounds(), 10);

    std::uint8_t out[16];
    aes.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256Vector)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f");
    auto plain = fromHex("00112233445566778899aabbccddeeff");
    Aes aes(key.data(), key.size());
    EXPECT_EQ(aes.rounds(), 14);

    std::uint8_t out[16];
    aes.encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, InPlaceEncryptionIsSafe)
{
    auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    Aes aes(key.data(), key.size());
    auto buf = fromHex("00112233445566778899aabbccddeeff");
    aes.encryptBlock(buf.data(), buf.data());
    EXPECT_EQ(toHex(buf.data(), 16),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(GcmTest, NistTestCase3NoAad)
{
    // NIST GCM spec, test case 3 (AES-128, 96-bit IV, 64-byte text).
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b391aafd255");
    auto expect_ct = fromHex(
        "42831ec2217774244b7221b784d0d49c"
        "e3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa05"
        "1ba30b396a0aac973d58e091473f5985");

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), nullptr, 0,
                cipher.data(), tag);
    EXPECT_EQ(cipher, expect_ct);
    EXPECT_EQ(toHex(tag, 16), "4d5c2af327cd64a62cf35abd2ba6fab4");

    std::vector<std::uint8_t> recovered(plain.size());
    EXPECT_TRUE(gcm.decrypt(iv.data(), cipher.data(), cipher.size(),
                            nullptr, 0, tag, recovered.data()));
    EXPECT_EQ(recovered, plain);
}

TEST(GcmTest, NistTestCase4WithAad)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    auto plain = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39");
    auto aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), aad.data(),
                aad.size(), cipher.data(), tag);
    EXPECT_EQ(toHex(tag, 16), "5bc94fbc3221a5db94fae95ae7121a47");
    EXPECT_EQ(toHex(cipher.data(), 16),
              "42831ec2217774244b7221b784d0d49c");
}

TEST(GcmTest, TamperedCiphertextFailsAndZeroes)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    std::vector<std::uint8_t> plain(100, 0x5a);

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), plain.size(), nullptr, 0,
                cipher.data(), tag);

    cipher[50] ^= 1;
    std::vector<std::uint8_t> out(plain.size(), 0xff);
    EXPECT_FALSE(gcm.decrypt(iv.data(), cipher.data(), cipher.size(),
                             nullptr, 0, tag, out.data()));
    for (std::uint8_t b : out)
        EXPECT_EQ(b, 0); // unverified plaintext is never released
}

TEST(GcmTest, TamperedTagFails)
{
    auto key = fromHex("feffe9928665731c6d6a8f9467308308");
    auto iv = fromHex("cafebabefacedbaddecaf888");
    std::vector<std::uint8_t> plain(64, 1);
    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(64);
    std::uint8_t tag[16];
    gcm.encrypt(iv.data(), plain.data(), 64, nullptr, 0, cipher.data(),
                tag);
    tag[0] ^= 0x80;
    std::vector<std::uint8_t> out(64);
    EXPECT_FALSE(gcm.decrypt(iv.data(), cipher.data(), 64, nullptr, 0,
                             tag, out.data()));
}

class GcmSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GcmSizeTest, RoundTripArbitrarySizes)
{
    std::size_t n = GetParam();
    auto key = fromHex("000102030405060708090a0b0c0d0e0f"
                       "101112131415161718191a1b1c1d1e1f");
    std::uint8_t iv[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};

    std::vector<std::uint8_t> plain(n);
    for (std::size_t i = 0; i < n; ++i)
        plain[i] = static_cast<std::uint8_t>(i * 13 + 7);

    AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> cipher(n), out(n);
    std::uint8_t tag[16];
    gcm.encrypt(iv, plain.data(), n, nullptr, 0, cipher.data(), tag);
    ASSERT_TRUE(
        gcm.decrypt(iv, cipher.data(), n, nullptr, 0, tag, out.data()));
    EXPECT_EQ(out, plain);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeTest,
                         ::testing::Values(1, 15, 16, 17, 31, 33, 100,
                                           4096, 65536));

TEST(GcmTest, NistTestCase13Aes256EmptyText)
{
    // NIST GCM spec, test case 13: K = 0^256, IV = 0^96, no text.
    std::uint8_t key[32] = {};
    std::uint8_t iv[12] = {};
    AesGcm gcm(key, sizeof(key));
    std::uint8_t tag[16];
    gcm.encrypt(iv, nullptr, 0, nullptr, 0, nullptr, tag);
    EXPECT_EQ(toHex(tag, 16), "530f8afbc74536b9a963b4f1c4cb738b");
    EXPECT_TRUE(gcm.decrypt(iv, nullptr, 0, nullptr, 0, tag, nullptr));
}

TEST(GcmTest, NistTestCase14Aes256OneZeroBlock)
{
    // NIST GCM spec, test case 14: K = 0^256, IV = 0^96, P = 0^128.
    std::uint8_t key[32] = {};
    std::uint8_t iv[12] = {};
    std::vector<std::uint8_t> plain(16, 0);
    AesGcm gcm(key, sizeof(key));
    std::vector<std::uint8_t> cipher(16);
    std::uint8_t tag[16];
    gcm.encrypt(iv, plain.data(), plain.size(), nullptr, 0, cipher.data(),
                tag);
    EXPECT_EQ(toHex(cipher.data(), 16),
              "cea7403d4d606b6e074ec5d3baf39d18");
    EXPECT_EQ(toHex(tag, 16), "d0d1c8a799996bf0265b98b5d48ab919");

    std::vector<std::uint8_t> recovered(16, 0xff);
    EXPECT_TRUE(gcm.decrypt(iv, cipher.data(), cipher.size(), nullptr, 0,
                            tag, recovered.data()));
    EXPECT_EQ(recovered, plain);
}

// ---- differential: production cipher vs the reference model -----------

TEST(ReferenceModelTest, ReferenceMatchesFips197Vectors)
{
    // The oracle is only as good as itself: pin it to FIPS 197 C.1/C.3.
    auto plain = fromHex("00112233445566778899aabbccddeeff");
    std::uint8_t out[16];
    auto k128 = fromHex("000102030405060708090a0b0c0d0e0f");
    RefAes(k128.data(), k128.size()).encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
    auto k256 = fromHex("000102030405060708090a0b0c0d0e0f"
                        "101112131415161718191a1b1c1d1e1f");
    RefAes(k256.data(), k256.size()).encryptBlock(plain.data(), out);
    EXPECT_EQ(toHex(out, 16), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(DifferentialTest, AesBlocksMatchByteWiseReference)
{
    std::mt19937_64 rng(0xae5);
    for (std::size_t key_bytes : {16u, 32u}) {
        SCOPED_TRACE(key_bytes);
        // A fresh key every 100 blocks: 100 keys x 100 blocks.
        for (int k = 0; k < 100; ++k) {
            auto key = randomBytes(rng, key_bytes);
            Aes aes(key.data(), key.size());
            RefAes ref(key.data(), key.size());
            for (int b = 0; b < 100; ++b) {
                auto in = randomBytes(rng, 16);
                std::uint8_t got[16], want[16];
                aes.encryptBlock(in.data(), got);
                ref.encryptBlock(in.data(), want);
                ASSERT_EQ(toHex(got, 16), toHex(want, 16))
                    << "key " << toHex(key.data(), key.size())
                    << " block " << toHex(in.data(), 16);
            }
        }
    }
}

TEST(DifferentialTest, GcmMatchesBitSerialReferenceAllLengths)
{
    // Every text length 0..4113 (every tail length, full blocks up to
    // a 4 KiB page and past it), with AAD lengths cycling 0..61 and the
    // key size alternating; fresh key, IV, AAD and text per case.
    std::mt19937_64 rng(0x6c3);
    for (std::size_t len = 0; len <= 4113; ++len) {
        std::size_t aad_len = len % 62;
        std::size_t key_bytes = len % 2 ? 32 : 16;
        auto key = randomBytes(rng, key_bytes);
        auto iv = randomBytes(rng, 12);
        auto aad = randomBytes(rng, aad_len);
        auto plain = randomBytes(rng, len);
        RefGcmResult want = refGcmEncrypt(key, iv.data(), plain, aad);

        AesGcm gcm(key.data(), key.size());
        std::vector<std::uint8_t> cipher(len);
        std::uint8_t tag[16];
        gcm.encrypt(iv.data(), plain.data(), len, aad.data(), aad_len,
                    cipher.data(), tag);
        ASSERT_EQ(cipher, want.cipher) << "len " << len;
        ASSERT_EQ(toHex(tag, 16), toHex(want.tag, 16)) << "len " << len;

        // Decrypt the reference ciphertext in place.
        std::vector<std::uint8_t> buf = want.cipher;
        ASSERT_TRUE(gcm.decrypt(iv.data(), buf.data(), len, aad.data(),
                                aad_len, want.tag, buf.data()))
            << "len " << len;
        ASSERT_EQ(buf, plain) << "len " << len;
    }
}

TEST(DifferentialTest, GcmMatchesReferenceAcrossAadLengths)
{
    std::mt19937_64 rng(0xaad);
    for (std::size_t aad_len = 0; aad_len <= 61; ++aad_len) {
        for (std::size_t len : {0u, 1u, 16u, 33u}) {
            auto key = randomBytes(rng, aad_len % 2 ? 16 : 32);
            auto iv = randomBytes(rng, 12);
            auto aad = randomBytes(rng, aad_len);
            auto plain = randomBytes(rng, len);
            RefGcmResult want = refGcmEncrypt(key, iv.data(), plain, aad);

            AesGcm gcm(key.data(), key.size());
            std::vector<std::uint8_t> cipher(len);
            std::uint8_t tag[16];
            gcm.encrypt(iv.data(), plain.data(), len, aad.data(), aad_len,
                        cipher.data(), tag);
            ASSERT_EQ(cipher, want.cipher)
                << "aad " << aad_len << " len " << len;
            ASSERT_EQ(toHex(tag, 16), toHex(want.tag, 16))
                << "aad " << aad_len << " len " << len;
        }
    }
}

TEST(DifferentialTest, TamperAnywhereFailsAndZeroes)
{
    // Flip one bit in the text, the AAD or the tag: decrypt must refuse
    // and release nothing, in place or out of place.
    std::mt19937_64 rng(0x7a9);
    for (std::size_t len : {1u, 15u, 16u, 17u, 4096u, 4113u}) {
        auto key = randomBytes(rng, 32);
        auto iv = randomBytes(rng, 12);
        auto aad = randomBytes(rng, 20);
        auto plain = randomBytes(rng, len);
        AesGcm gcm(key.data(), key.size());
        std::vector<std::uint8_t> cipher(len);
        std::uint8_t tag[16];
        gcm.encrypt(iv.data(), plain.data(), len, aad.data(), aad.size(),
                    cipher.data(), tag);

        for (int where = 0; where < 3; ++where) {
            SCOPED_TRACE(::testing::Message()
                         << "len " << len << " where " << where);
            auto c = cipher;
            auto a = aad;
            std::uint8_t t[16];
            std::memcpy(t, tag, 16);
            if (where == 0)
                c[rng() % len] ^= 0x10;
            else if (where == 1)
                a[rng() % a.size()] ^= 0x01;
            else
                t[rng() % 16] ^= 0x80;

            std::vector<std::uint8_t> out(len, 0xff);
            EXPECT_FALSE(gcm.decrypt(iv.data(), c.data(), len, a.data(),
                                     a.size(), t, out.data()));
            EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                                    [](std::uint8_t b) { return b == 0; }));
            EXPECT_FALSE(gcm.decrypt(iv.data(), c.data(), len, a.data(),
                                     a.size(), t, c.data()));
            EXPECT_TRUE(std::all_of(c.begin(), c.end(),
                                    [](std::uint8_t b) { return b == 0; }));
        }
    }
}

// ---- engines ----------------------------------------------------------

class EnginesTest : public ::testing::Test
{
  protected:
    EnginesTest()
    {
        for (int i = 0; i < 32; ++i)
            key_[i] = static_cast<std::uint8_t>(i * 3 + 1);
        for (int i = 0; i < 12; ++i)
            iv_[i] = static_cast<std::uint8_t>(i);
    }

    core::Lake lake_;
    std::uint8_t key_[32];
    std::uint8_t iv_[12];
};

TEST_F(EnginesTest, AllEnginesProduceIdenticalCiphertext)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    CpuCipher sw(key_, 32, lake_.clock(), cpu);
    AesNiCipher ni(key_, 32, lake_.clock(), cpu);
    LakeGpuCipher gpu_eng(key_, 32, lake_.lib(), 1 << 16);

    std::vector<std::uint8_t> plain(10000);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> c1(plain.size()), c2(plain.size()),
        c3(plain.size());
    std::uint8_t t1[16], t2[16], t3[16];
    sw.encryptExtent(iv_, plain.data(), plain.size(), c1.data(), t1);
    ni.encryptExtent(iv_, plain.data(), plain.size(), c2.data(), t2);
    gpu_eng.encryptExtent(iv_, plain.data(), plain.size(), c3.data(), t3);

    EXPECT_EQ(c1, c2);
    EXPECT_EQ(c1, c3);
    EXPECT_EQ(std::memcmp(t1, t2, 16), 0);
    EXPECT_EQ(std::memcmp(t1, t3, 16), 0);

    // Cross-engine decrypt: GPU ciphertext through the CPU engine.
    std::vector<std::uint8_t> out(plain.size());
    EXPECT_TRUE(sw.decryptExtent(iv_, c3.data(), c3.size(), t3,
                                 out.data()));
    EXPECT_EQ(out, plain);
}

TEST_F(EnginesTest, ThroughputOrderingAtLargeExtents)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    CpuCipher sw(key_, 32, lake_.clock(), cpu);
    AesNiCipher ni(key_, 32, lake_.clock(), cpu);
    LakeGpuCipher gpu_eng(key_, 32, lake_.lib(), 2 << 20);

    std::vector<std::uint8_t> plain(2 << 20);
    std::vector<std::uint8_t> cipher(plain.size());
    std::uint8_t tag[16];

    auto time_encrypt = [&](CipherEngine &e) {
        Nanos t0 = lake_.clock().now();
        e.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                        tag);
        return lake_.clock().now() - t0;
    };

    Nanos sw_t = time_encrypt(sw);
    Nanos ni_t = time_encrypt(ni);
    Nanos gpu_t = time_encrypt(gpu_eng);
    // Fig. 14's ordering at 2 MiB blocks: CPU slowest, GPU fastest.
    EXPECT_GT(sw_t, ni_t);
    EXPECT_GT(ni_t, gpu_t);
}

TEST_F(EnginesTest, GpuDecryptDetectsTamper)
{
    LakeGpuCipher gpu_eng(key_, 16, lake_.lib(), 4096);
    std::vector<std::uint8_t> plain(1000, 0x42), cipher(1000), out(1000);
    std::uint8_t tag[16];
    gpu_eng.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                          tag);
    cipher[0] ^= 1;
    EXPECT_FALSE(gpu_eng.decryptExtent(iv_, cipher.data(), cipher.size(),
                                       tag, out.data()));
    for (std::uint8_t b : out)
        EXPECT_EQ(b, 0);
}

TEST_F(EnginesTest, HybridRoundTripAndTamper)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    HybridCipher hybrid(key_, 32, lake_.lib(), lake_.clock(), cpu,
                        1 << 20);

    std::vector<std::uint8_t> plain(300000);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 7);
    std::vector<std::uint8_t> cipher(plain.size()), out(plain.size());
    std::uint8_t tag[16];

    hybrid.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                         tag);
    ASSERT_TRUE(hybrid.decryptExtent(iv_, cipher.data(), cipher.size(),
                                     tag, out.data()));
    EXPECT_EQ(out, plain);

    cipher[123] ^= 1;
    EXPECT_FALSE(hybrid.decryptExtent(iv_, cipher.data(), cipher.size(),
                                      tag, out.data()));
}

TEST_F(EnginesTest, HybridFasterThanAesNiAlone)
{
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    AesNiCipher ni(key_, 32, lake_.clock(), cpu);
    HybridCipher hybrid(key_, 32, lake_.lib(), lake_.clock(), cpu,
                        4 << 20);

    std::vector<std::uint8_t> plain(4 << 20), cipher(4 << 20);
    std::uint8_t tag[16];

    Nanos t0 = lake_.clock().now();
    ni.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(), tag);
    Nanos ni_t = lake_.clock().now() - t0;

    t0 = lake_.clock().now();
    hybrid.encryptExtent(iv_, plain.data(), plain.size(), cipher.data(),
                         tag);
    Nanos hybrid_t = lake_.clock().now() - t0;
    EXPECT_LT(hybrid_t, ni_t);
}

// ---- kernel registration ----------------------------------------------

TEST(KernelRegistrationTest, FirstUseFromTwoStacksAtOnce)
{
    // Each thread builds its own Lake stack and the first LakeGpuCipher
    // and LakeMlp of the process, in opposite orders, so the built-in,
    // crypto and ML registrations all race their first use and each
    // other's launches. Run alone (ctest runs each test in its own
    // process) this is the first registration; under TSan it is the
    // race detector's target.
    auto worker = [](bool cipher_first, bool *ok) {
        core::Lake lake;
        Rng rng(7);
        ml::Mlp net(ml::MlpConfig::linnos(), rng);
        ml::Matrix x(4, net.config().input);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = static_cast<float>(i % 7) / 7.0f;

        std::uint8_t key[16] = {1, 2, 3};
        std::uint8_t iv[12] = {4, 5, 6};
        std::vector<std::uint8_t> plain(4096, 0x3c), cipher(4096),
            out(4096);
        std::uint8_t tag[16];
        auto encrypt = [&] {
            LakeGpuCipher gpu(key, sizeof(key), lake.lib(), plain.size());
            gpu.encryptExtent(iv, plain.data(), plain.size(),
                              cipher.data(), tag);
            return gpu.decryptExtent(iv, cipher.data(), cipher.size(), tag,
                                     out.data()) &&
                   out == plain;
        };
        auto classify = [&] {
            ml::LakeMlp mlp(net, lake.lib(), /*sync_copy=*/false, 4);
            return mlp.classify(x) == net.classify(x);
        };
        *ok = cipher_first ? encrypt() && classify()
                           : classify() && encrypt();
    };

    bool ok0 = false, ok1 = false;
    std::thread t0(worker, true, &ok0);
    std::thread t1(worker, false, &ok1);
    t0.join();
    t1.join();
    EXPECT_TRUE(ok0);
    EXPECT_TRUE(ok1);
}

} // namespace
} // namespace lake::crypto
