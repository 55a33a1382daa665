#ifndef LAKE_CRYPTO_ENGINES_H
#define LAKE_CRYPTO_ENGINES_H

/**
 * @file
 * Cipher execution engines: the four bars of Fig. 14.
 *
 * All engines produce bit-identical AES-GCM output; they differ in
 * where the work runs and what virtual time it costs:
 *
 *  - CpuCipher:    scalar kernel crypto (the paper's "CPU" line)
 *  - AesNiCipher:  AES-NI instructions (same core, ~6x throughput)
 *  - LakeGpuCipher: extents shipped to the GPU through LAKE ("LAKE")
 *  - HybridCipher: GPU and AES-NI operate on disjoint halves of every
 *    extent concurrently ("GPU+AES-NI"), the +31%/+22% configuration
 *
 * Each engine implements the Linux crypto-API-style interface the
 * modified eCryptfs consumes (encryptExtent / decryptExtent).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "base/time.h"
#include "crypto/gcm.h"
#include "gpu/spec.h"
#include "remote/lakelib.h"
#include "remote/streampool.h"

namespace lake::crypto {

/**
 * One extent of a batch transform (the scatterlist entry of the Linux
 * crypto API's batched submission path).
 */
struct ExtentOp
{
    const std::uint8_t *iv = nullptr; //!< kGcmIvBytes bytes
    const std::uint8_t *in = nullptr; //!< plaintext (encrypt) / ciphertext
    std::size_t len = 0;
    std::uint8_t *out = nullptr;
    /** Tag: output for encrypt, expected value for decrypt. */
    std::uint8_t tag[kGcmTagBytes] = {};
    /** Per-extent result (decrypt: tag verification). */
    bool ok = false;
};

/** Interface eCryptfs programs against (a Linux crypto API cipher). */
class CipherEngine
{
  public:
    virtual ~CipherEngine() = default;

    /** Encrypts one extent; writes ciphertext and tag. */
    virtual void encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                               const std::uint8_t *plain, std::size_t len,
                               std::uint8_t *cipher,
                               std::uint8_t tag[kGcmTagBytes]) = 0;

    /** Decrypts one extent. @return tag verification result. */
    virtual bool decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                               const std::uint8_t *cipher, std::size_t len,
                               const std::uint8_t tag[kGcmTagBytes],
                               std::uint8_t *plain) = 0;

    /**
     * True when the engine has a genuinely pipelined batch path.
     * eCryptfs only takes its batched submission route for such
     * engines, so engines using the default per-extent loops keep
     * their exact serial virtual-time trajectory.
     */
    virtual bool batched() const { return false; }

    /** Encrypts a batch; default is the serial per-extent loop. */
    virtual void encryptBatch(ExtentOp *ops, std::size_t n);

    /**
     * Decrypts a batch (default: serial loop).
     * @return true iff every extent authenticated (per-op ok is set).
     */
    virtual bool decryptBatch(ExtentOp *ops, std::size_t n);

    /** Engine name as the figures label it. */
    virtual const char *name() const = 0;
};

/** Scalar software AES-GCM in kernel context. */
class CpuCipher final : public CipherEngine
{
  public:
    /** Fixed per-extent overhead (crypto API dispatch + scatterlist). */
    static constexpr Nanos kPerExtent = 2_us;

    CpuCipher(const std::uint8_t *key, std::size_t key_bytes, Clock &clock,
              gpu::CpuSpec spec);

    void encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *plain, std::size_t len,
                       std::uint8_t *cipher,
                       std::uint8_t tag[kGcmTagBytes]) override;
    bool decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *cipher, std::size_t len,
                       const std::uint8_t tag[kGcmTagBytes],
                       std::uint8_t *plain) override;
    const char *name() const override { return "CPU"; }

  private:
    AesGcm gcm_;
    Clock &clock_;
    gpu::CpuSpec spec_;
};

/** AES-NI-accelerated AES-GCM (same data path, different cost). */
class AesNiCipher final : public CipherEngine
{
  public:
    /** Fixed per-extent overhead. */
    static constexpr Nanos kPerExtent = 1500_ns;

    AesNiCipher(const std::uint8_t *key, std::size_t key_bytes,
                Clock &clock, gpu::CpuSpec spec);

    void encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *plain, std::size_t len,
                       std::uint8_t *cipher,
                       std::uint8_t tag[kGcmTagBytes]) override;
    bool decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *cipher, std::size_t len,
                       const std::uint8_t tag[kGcmTagBytes],
                       std::uint8_t *plain) override;
    const char *name() const override { return "AES-NI"; }

  private:
    AesGcm gcm_;
    Clock &clock_;
    gpu::CpuSpec spec_;
};

/**
 * GPU AES-GCM through LAKE: the "aes_gcm" kernel runs on device
 * buffers; extents stream through lakeShm.
 */
class LakeGpuCipher final : public CipherEngine
{
  public:
    /**
     * @param key, key_bytes cipher key (uploaded to the device once)
     * @param lib        kernel-side stubs
     * @param max_extent largest extent the FS will pass (device buffer
     *                   sizing)
     */
    LakeGpuCipher(const std::uint8_t *key, std::size_t key_bytes,
                  remote::LakeLib &lib, std::size_t max_extent);
    ~LakeGpuCipher() override;

    LakeGpuCipher(const LakeGpuCipher &) = delete;
    LakeGpuCipher &operator=(const LakeGpuCipher &) = delete;

    void encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *plain, std::size_t len,
                       std::uint8_t *cipher,
                       std::uint8_t tag[kGcmTagBytes]) override;
    bool decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *cipher, std::size_t len,
                       const std::uint8_t tag[kGcmTagBytes],
                       std::uint8_t *plain) override;
    const char *name() const override { return "LAKE"; }

    /**
     * Opts into streaming DMA orchestration (DESIGN.md §10): batch
     * transforms then software-pipeline extents depth-1 across the
     * orchestrator's streams — each extent's [ctl|data] block rides
     * one coalesced HtoD from a pooled lakeShm slot into a per-stream
     * device slab, so extent i+1's upload overlaps extent i's
     * "aes_gcm" and extent i-1's download. Allocates one device slab
     * per stream here (never per extent). Pass nullptr to revert.
     */
    void enableStreaming(remote::StreamOrchestrator *orch);

    bool batched() const override { return orch_ != nullptr; }
    void encryptBatch(ExtentOp *ops, std::size_t n) override;
    bool decryptBatch(ExtentOp *ops, std::size_t n) override;

  private:
    /** Shared transform: ships one extent through the GPU. */
    bool run(bool encrypt, const std::uint8_t iv[kGcmIvBytes],
             const std::uint8_t *in, std::size_t len, std::uint8_t *out,
             std::uint8_t tag[kGcmTagBytes]);

    /** Pipelined batch transform over the orchestrator's streams. */
    bool runBatch(bool encrypt, ExtentOp *ops, std::size_t n);

    remote::LakeLib &lib_;
    shm::ShmArena &arena_;
    std::size_t key_bytes_;
    std::size_t max_extent_;
    gpu::DevicePtr d_ctl_ = 0;  //!< key + iv + tag control block
    gpu::DevicePtr d_buf_ = 0;  //!< extent data
    shm::ShmOffset h_buf_ = shm::kNullOffset;
    shm::ShmOffset h_ctl_ = shm::kNullOffset;
    remote::StreamOrchestrator *orch_ = nullptr;
    /** Per-stream [ctl|data] device slabs (streaming mode only). */
    std::vector<gpu::DevicePtr> d_slab_;
    std::uint8_t key_[32] = {};
};

/**
 * GPU + AES-NI: each extent is split proportionally to the two
 * engines' throughputs and processed concurrently; elapsed time is the
 * slower half (the GPU path also pays its LAKE transport).
 */
class HybridCipher final : public CipherEngine
{
  public:
    HybridCipher(const std::uint8_t *key, std::size_t key_bytes,
                 remote::LakeLib &lib, Clock &clock, gpu::CpuSpec cpu,
                 std::size_t max_extent);

    void encryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *plain, std::size_t len,
                       std::uint8_t *cipher,
                       std::uint8_t tag[kGcmTagBytes]) override;
    bool decryptExtent(const std::uint8_t iv[kGcmIvBytes],
                       const std::uint8_t *cipher, std::size_t len,
                       const std::uint8_t tag[kGcmTagBytes],
                       std::uint8_t *plain) override;
    const char *name() const override { return "GPU+AES-NI"; }

  private:
    AesGcm gcm_;      //!< performs the real transform
    LakeGpuCipher gpu_;
    Clock &clock_;
    gpu::CpuSpec cpu_;
};

/** Registers the "aes_gcm" GPU kernel; idempotent and thread-safe. */
void registerCryptoKernels();

} // namespace lake::crypto

#endif // LAKE_CRYPTO_ENGINES_H
