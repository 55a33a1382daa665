// crypt_bulk: the remoting path carrying few large transfers. A closed
// loop writes files through eCryptfs over the GPU AES-GCM cipher at
// 128 KiB extents (the knee of Fig. 14), then reads every file back
// and checks it byte for byte; a tag that fails to verify fails the
// read.
//
// Latency here is host (CPU) time to data per 4 KiB page, the unit a
// reader or writer of the page cache waits on: from the start of the
// file operation until the extent holding the page has been encrypted
// (write) or fetched and decrypted (read). Virtual time per extent is
// the same for every full extent, so it would not depend on the seed.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/lake.h"
#include "crypto/engines.h"
#include "fs/ecryptfs.h"
#include "harness.h"
#include "layers.h"
#include "spans.h"

namespace lakebench {

using lake::Nanos;

namespace {

/** Encryption extent (Fig. 14's block size). */
constexpr std::size_t kExtentBytes = 128 << 10;
constexpr std::size_t kPageBytes = 4096;
/**
 * Files written and read back per round. Sizes are seeded but every
 * file spans eight extents, the last one 64-128 KiB, so the page
 * latency percentiles fall on the same extents for every seed.
 */
constexpr std::size_t kFilesPerRound = 4;
constexpr std::size_t kMinFileBytes = (960 << 10) + 1;
constexpr std::size_t kMaxFileBytes = 1024 << 10;
/**
 * Rounds every run makes; their virtual-time outputs are the reported
 * virtual metrics (24 files, about 12k page samples per run).
 */
constexpr std::size_t kVirtualRounds = 6;

/** The CipherEngine decorator: spans, tallies and extent completions. */
class ObservedCipher final : public lake::crypto::CipherEngine
{
  public:
    struct Tally
    {
        std::uint64_t extents = 0;
        std::uint64_t bytes = 0;
        std::uint64_t tag_failures = 0;
        Nanos virtual_ns = 0;
        std::int64_t host_ns = 0;
    };

    /** When an extent finished (process CPU ns), and its length. */
    struct Done
    {
        std::int64_t host_at;
        std::size_t len;
    };

    ObservedCipher(lake::crypto::CipherEngine &inner, const lake::Clock &clock,
                   SpanRecorder &rec)
        : inner_(inner), clock_(clock), rec_(rec)
    {}

    void
    encryptExtent(const std::uint8_t iv[lake::crypto::kGcmIvBytes],
                  const std::uint8_t *plain, std::size_t len,
                  std::uint8_t *cipher,
                  std::uint8_t tag[lake::crypto::kGcmTagBytes]) override
    {
        Timed t(*this, "encrypt", len);
        inner_.encryptExtent(iv, plain, len, cipher, tag);
    }

    bool
    decryptExtent(const std::uint8_t iv[lake::crypto::kGcmIvBytes],
                  const std::uint8_t *cipher, std::size_t len,
                  const std::uint8_t tag[lake::crypto::kGcmTagBytes],
                  std::uint8_t *plain) override
    {
        Timed t(*this, "decrypt", len);
        bool ok = inner_.decryptExtent(iv, cipher, len, tag, plain);
        if (!ok)
            ++tally.tag_failures;
        return ok;
    }

    const char *name() const override { return inner_.name(); }

    Tally tally;
    /** Extents finished since the caller last cleared it. */
    std::vector<Done> done;

  private:
    /** One extent's span and tallies. */
    class Timed
    {
      public:
        Timed(ObservedCipher &c, const char *what, std::size_t len)
            : c_(c), len_(len),
              span_(c.rec_, "crypto", what, c.clock_, c.tally.extents + 1),
              v0_(c.clock_.now()), h0_(cpuNs())
        {}
        ~Timed()
        {
            const std::int64_t h1 = cpuNs();
            ++c_.tally.extents;
            c_.tally.bytes += len_;
            c_.tally.virtual_ns += c_.clock_.now() - v0_;
            c_.tally.host_ns += h1 - h0_;
            c_.done.push_back(Done{h1, len_});
        }

      private:
        ObservedCipher &c_;
        std::size_t len_;
        SpanScope span_;
        Nanos v0_;
        std::int64_t h0_;
    };

    lake::crypto::CipherEngine &inner_;
    const lake::Clock &clock_;
    SpanRecorder &rec_;
};

/** One round's outputs. */
struct CryptRound
{
    std::vector<std::string> errors;
    double setup_s = 0.0;
    double host_s = 0.0;
    /** setup_s and host_s at the reference host's speed (harness.h). */
    double scaled_setup_s = 0.0;
    double scaled_host_s = 0.0;
    Nanos virtual_ns = 0;
    std::uint64_t bytes = 0;
    std::uint64_t extents = 0;
    std::uint64_t files = 0;
    std::uint64_t failed = 0;
    /** Time to data of every page written and read, scaled host CPU us. */
    std::vector<double> page_us;
    std::vector<Metric> layers;
};

/** The seeded files of round @p round. */
std::vector<std::vector<std::uint8_t>>
makeFiles(std::uint64_t seed, std::size_t round)
{
    lake::Rng rng(seed * 0x9e3779b97f4a7c15ull + 7919 * round + 7);
    std::vector<std::vector<std::uint8_t>> files(kFilesPerRound);
    for (auto &f : files) {
        f.resize(rng.uniformInt(kMinFileBytes, kMaxFileBytes));
        for (std::size_t i = 0; i < f.size(); i += 8) {
            std::uint64_t w = rng.uniformInt(0, ~0ull);
            std::memcpy(f.data() + i, &w, std::min<std::size_t>(8, f.size() - i));
        }
    }
    return files;
}

CryptRound
cryptRound(const std::vector<std::vector<std::uint8_t>> &files,
           std::uint64_t seed, SpanRecorder &rec, bool traced, bool scale)
{
    CryptRound r;
    // The extents stay within L2, so the compute reference scales them.
    // Set-up and every file operation (a quarter of a second or more)
    // are slices of their own.
    HostTimer timer(scale, Reference::Compute);
    // Set-up: boot, key upload and a one-extent warm-up each way.
    lake::core::LakeConfig cfg;
    cfg.obs.metrics = traced;
    cfg.obs.trace = traced;
    lake::core::Lake lake(cfg);
    std::uint8_t key[32];
    lake::Rng key_rng(seed + 11);
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(key_rng.uniformInt(0, 255));
    lake::crypto::LakeGpuCipher gpu(key, sizeof key, lake.lib(), kExtentBytes);
    ObservedCipher cipher(gpu, lake.clock(), rec);
    lake::fs::ECryptFs fs(cipher, lake.clock(),
                          lake::fs::LowerFsModel::testbed(), kExtentBytes);
    {
        std::vector<std::uint8_t> w(kExtentBytes, 0x5a);
        auto back = fs.writeFile("/warmup", w.data(), w.size()).isOk()
                        ? fs.readFile("/warmup")
                        : lake::Result<std::vector<std::uint8_t>>(
                              lake::Status(lake::Code::Internal, "write"));
        if (!back.isOk() || back.value() != w)
            r.errors.push_back("warm-up failed");
    }
    const HostSlice setup = timer.split();
    r.setup_s = static_cast<double>(setup.ns) / 1e9;
    r.scaled_setup_s = setup.scaledNs() / 1e9;

    lake::obs::Metrics::global().reset();
    rec.clear();
    rec.arm(traced);
    cipher.tally = {};
    const RemoteSnapshot remote0 = snapshotRemote(lake);
    const lake::fs::ECryptFsStats fs0 = fs.stats();
    const Nanos v0 = lake.clock().now();
    std::int64_t host_ns = 0;
    double scaled_ns = 0.0;
    auto op = [&](const char *what, std::size_t i, auto &&body) {
        cipher.done.clear();
        const std::int64_t start = cpuNs();
        bool ok = false;
        {
            SpanScope span(rec, "fs", what, lake.clock(), i);
            ok = body();
        }
        const HostSlice slice = timer.split();
        host_ns += slice.ns;
        scaled_ns += slice.scaledNs();
        for (const ObservedCipher::Done &d : cipher.done)
            r.page_us.insert(r.page_us.end(), (d.len + kPageBytes - 1) / kPageBytes,
                             static_cast<double>(d.host_at - start) / 1e3 *
                                 slice.factor);
        if (!ok)
            ++r.failed;
    };
    for (std::size_t i = 0; i < files.size(); ++i)
        op("writeFile", i, [&] {
            return fs.writeFile("/f" + std::to_string(i), files[i].data(),
                                files[i].size())
                .isOk();
        });
    for (std::size_t i = 0; i < files.size(); ++i)
        op("readFile", i, [&] {
            auto back = fs.readFile("/f" + std::to_string(i));
            const std::int64_t c0 = cpuNs();
            bool ok = back.isOk() && back.value() == files[i];
            timer.exclude(cpuNs() - c0);
            return ok;
        });
    r.host_s = static_cast<double>(host_ns) / 1e9;
    r.scaled_host_s = scaled_ns / 1e9;
    r.virtual_ns = lake.clock().now() - v0;
    rec.arm(false);

    const lake::fs::ECryptFsStats &st = fs.stats();
    r.bytes = (st.bytes_written - fs0.bytes_written) +
              (st.bytes_read - fs0.bytes_read);
    r.extents = cipher.tally.extents;
    r.files = 2 * files.size();
    if (r.failed)
        r.errors.push_back(std::to_string(r.failed) +
                           " file operations failed or read back wrong bytes");
    if (cipher.tally.tag_failures)
        r.errors.push_back("extent tags failed to verify");

    if (traced) {
        const double ops =
            static_cast<double>(std::max<std::uint64_t>(1, r.extents));
        const double vt = static_cast<double>(std::max<Nanos>(1, r.virtual_ns));
        auto put = [&r](const char *n, double v, const char *u) {
            r.layers.push_back(Metric{n, v, u});
        };
        const RemoteSnapshot now = snapshotRemote(lake);
        putRemoteLayers(r.layers, remote0, now, ops);
        put("gpu.util_pct",
            100.0 * static_cast<double>(now.busy[0] - remote0.busy[0]) / vt, "%");
        // Computed from extent sizes: every byte goes to the device and back.
        put("gpu.bytes_per_op", 2.0 * static_cast<double>(cipher.tally.bytes) / ops,
            "bytes");
        put("crypto.extent_us", lake::toUs(cipher.tally.virtual_ns) / ops, "us");
        put("crypto.host_mbps",
            static_cast<double>(cipher.tally.bytes) /
                static_cast<double>(std::max<std::int64_t>(1, cipher.tally.host_ns)) *
                1e3,
            "MB/s");
        put("fs.disk_busy_frac",
            static_cast<double>(st.disk_busy - fs0.disk_busy) / vt, "ratio");
        put("fs.crypto_busy_frac",
            static_cast<double>(st.crypto_busy - fs0.crypto_busy) / vt, "ratio");
        std::string why;
        if (!putBudget(r.layers, rec, r.virtual_ns, &why))
            r.errors.push_back("budget does not reconcile: " + why);
    }
    return r;
}

} // namespace

Outcome
runCryptBulk(const Options &opt)
{
    Outcome out;
    SpanRecorder rec;
    std::vector<double> setup_s, host_mbps, host_vps, overhead;
    LatencySample pages;
    std::uint64_t v_bytes = 0, v_extents = 0;
    Nanos v_ns = 0;
    CryptRound traced_round, traced_partner;
    repeatFor(opt.seconds, opt.trace ? 1 : kVirtualRounds, [&](std::size_t round) {
        const auto files = makeFiles(opt.seed, round);
        CryptRound r = cryptRound(files, opt.seed, rec, false, !opt.trace);
        for (const std::string &e : r.errors)
            out.fail(e);
        setup_s.push_back(r.scaled_setup_s);
        host_mbps.push_back(static_cast<double>(r.bytes) / r.scaled_host_s / 1e6);
        host_vps.push_back(static_cast<double>(r.extents) / r.scaled_host_s);
        out.attempted += r.files;
        out.failed += r.failed;
        for (double us : r.page_us)
            pages.add(us);
        if (round < kVirtualRounds) {
            v_bytes += r.bytes;
            v_extents += r.extents;
            v_ns += r.virtual_ns;
        }
        if (opt.trace) {
            CryptRound t = cryptRound(files, opt.seed, rec, true, false);
            for (const std::string &e : t.errors)
                out.fail("traced round: " + e);
            overhead.push_back(t.host_s / r.host_s - 1.0);
            traced_round = std::move(t);
            traced_partner = std::move(r);
        }
    });
    std::printf("crypt: %zu rounds of %zu files\n", setup_s.size(),
                kFilesPerRound);

    if (opt.trace) {
        for (const Metric &m : traced_round.layers)
            out.put(m.name, m.value, m.unit);
        const bool same = traced_round.virtual_ns == traced_partner.virtual_ns &&
                          traced_round.extents == traced_partner.extents &&
                          traced_round.bytes == traced_partner.bytes;
        if (!same)
            out.fail("tracing moved virtual time");
        out.put("fail_frac",
                static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                "ratio");
        out.put("obs.host_overhead_frac", median(overhead), "ratio");
        out.put("obs.virtual_drift", same ? 0.0 : 1.0, "ratio");
        if (!opt.trace_out.empty() && !rec.writeChromeTrace(opt.trace_out))
            out.fail("cannot write " + opt.trace_out);
        return out;
    }

    const Percentile p50 = pages.percentile(50.0), p99 = pages.percentile(99.0),
                     p999 = pages.percentile(99.9);
    std::printf("%s\n%s\n%s\n", describe("p50_us", p50).c_str(),
                describe("p99_us", p99).c_str(), describe("p999_us", p999).c_str());
    if (!p50.ok || !p99.ok || !p999.ok)
        out.fail("a latency percentile has fewer than 10 samples beyond it");
    out.put("setup_s", median(setup_s), "s");
    out.put("rss_mb", peakRssMb(), "MiB");
    out.put("p50_us", p50.value, "us");
    out.put("p99_us", p99.value, "us");
    out.put("p999_us", p999.value, "us");
    out.put("slo_rate_vps",
            static_cast<double>(v_extents) / lake::toSec(v_ns), "vectors/s");
    out.put("host_vps", median(host_vps), "vectors/s");
    out.put("crypt_mbps", static_cast<double>(v_bytes) / lake::toSec(v_ns) / 1e6,
            "MB/s");
    out.put("host_mbps", median(host_mbps), "MB/s");
    return out;
}

} // namespace lakebench
