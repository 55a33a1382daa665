#ifndef LAKE_CRYPTO_GCM_H
#define LAKE_CRYPTO_GCM_H

/**
 * @file
 * AES-GCM (NIST SP 800-38D).
 *
 * The paper "modified eCryptfs to use AES-GCM instead of CBC because it
 * is parallelizable" (§7.7) — CTR keystream blocks are independent,
 * which is what the GPU engine exploits. 96-bit IVs only (the standard
 * fast path).
 *
 * GHASH multiplies through Shoup's 4-bit table of the hash subkey,
 * built once per key. Like Aes, it is not constant-time: the table is
 * indexed by secret hash state.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes.h"

namespace lake::crypto {

/** Authentication tag length in bytes. */
constexpr std::size_t kGcmTagBytes = 16;
/** Supported IV length in bytes. */
constexpr std::size_t kGcmIvBytes = 12;

/**
 * AES-GCM authenticated encryption with one key.
 */
class AesGcm
{
  public:
    /** @param key, key_bytes as Aes */
    AesGcm(const std::uint8_t *key, std::size_t key_bytes);

    /**
     * Encrypts @p len bytes of @p plain into @p cipher (may alias) and
     * writes the 16-byte tag.
     * @param iv 12-byte nonce — never reuse under one key
     * @param aad optional additional authenticated data (may be null)
     */
    void encrypt(const std::uint8_t *iv, const std::uint8_t *plain,
                 std::size_t len, const std::uint8_t *aad,
                 std::size_t aad_len, std::uint8_t *cipher,
                 std::uint8_t tag[kGcmTagBytes]) const;

    /**
     * Decrypts and authenticates.
     * @return true when the tag verifies; on failure @p plain is
     *         zeroed (release-of-unverified-plaintext is a classic
     *         GCM misuse).
     */
    bool decrypt(const std::uint8_t *iv, const std::uint8_t *cipher,
                 std::size_t len, const std::uint8_t *aad,
                 std::size_t aad_len,
                 const std::uint8_t tag[kGcmTagBytes],
                 std::uint8_t *plain) const;

  private:
    /**
     * y = y * H in GCM's bit-reflected GF(2^128), four bits of y at a
     * time; y is the GHASH accumulator as big-endian halves.
     */
    void mulH(std::uint64_t y[2]) const;

    /** Absorbs @p len bytes (last block zero-padded) into @p y. */
    void absorb(std::uint64_t y[2], const std::uint8_t *data,
                std::size_t len) const;

    /** The tag: GHASH(aad, text, lengths) ^ E(K, J0). */
    void computeTag(const std::uint8_t j0[16], const std::uint8_t *aad,
                    std::size_t aad_len, const std::uint8_t *text,
                    std::size_t text_len,
                    std::uint8_t out[kGcmTagBytes]) const;

    /** CTR keystream application starting after counter block @p j0. */
    void ctr(const std::uint8_t j0[16], const std::uint8_t *in,
             std::size_t len, std::uint8_t *out) const;

    Aes aes_;
    /**
     * Shoup's 4-bit table of the hash subkey H = E(K, 0^128):
     * hh_[i]:hl_[i] is H times the 4-bit polynomial i (bit 3 of i is
     * the x^0 coefficient), as big-endian halves.
     */
    std::uint64_t hh_[16];
    std::uint64_t hl_[16];
};

} // namespace lake::crypto

#endif // LAKE_CRYPTO_GCM_H
