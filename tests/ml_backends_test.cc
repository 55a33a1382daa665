// Tests for the CPU and LAKE-remoted GPU inference backends: result
// parity across engines, timing model sanity, crossover existence.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

#include "core/lake.h"
#include "crypto/engines.h"
#include "ml/backends.h"
#include "ml/gpu_kernels.h"

namespace lake::ml {
namespace {

using gpu::CuResult;
using gpu::DevicePtr;

/** @p net with its output layer negated: a blob of the same size and
 *  header whose logits are exactly -net's, so every untied row flips. */
Mlp
withNegatedHead(const Mlp &net)
{
    Mlp flipped = net;
    flipped.editParams([](std::vector<Matrix> &w,
                          std::vector<std::vector<float>> &b) {
        for (std::size_t i = 0; i < w.back().size(); ++i)
            w.back().data()[i] = -w.back().data()[i];
        for (float &v : b.back())
            v = -v;
    });
    return flipped;
}

/**
 * One raw "mlp_forward" launch on the model blob at @p d_model,
 * synchronized so a kernel failure is the return value. Fills
 * @p logits on success.
 */
CuResult
launchMlp(remote::LakeLib &lib, DevicePtr d_model, const Matrix &x,
          std::uint32_t out_w, Matrix *logits)
{
    DevicePtr d_in = 0, d_out = 0;
    std::size_t in_bytes = x.size() * sizeof(float);
    std::size_t out_bytes = x.rows() * out_w * sizeof(float);
    EXPECT_EQ(lib.cuMemAlloc(&d_in, in_bytes), CuResult::Success);
    EXPECT_EQ(lib.cuMemAlloc(&d_out, out_bytes), CuResult::Success);
    EXPECT_EQ(lib.cuMemcpyHtoD(d_in, x.data(), in_bytes), CuResult::Success);

    gpu::LaunchConfig cfg;
    cfg.kernel = "mlp_forward";
    cfg.block_x = 256;
    cfg.arg(d_model).arg(d_in).arg(d_out).arg(
        static_cast<std::uint64_t>(x.rows()), nullptr);
    lib.cuLaunchKernel(cfg, 0);
    CuResult r = lib.cuCtxSynchronize();
    if (r == CuResult::Success) {
        *logits = Matrix(x.rows(), out_w);
        r = lib.cuMemcpyDtoH(logits->data(), d_out, out_bytes);
    }
    lib.cuMemFree(d_in);
    lib.cuMemFree(d_out);
    return r;
}

/** Bitwise equality of two logits matrices. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class BackendsTest : public ::testing::Test
{
  protected:
    BackendsTest() : rng_(21) { registerMlKernels(); }

    Matrix
    randomBatch(std::size_t n, std::size_t width)
    {
        Matrix x(n, width);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = static_cast<float>(rng_.uniform(0.0, 1.0));
        return x;
    }

    core::Lake lake_;
    Rng rng_;
};

TEST_F(BackendsTest, CpuMlpMatchesModel)
{
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    Matrix x = randomBatch(16, 31);

    Nanos t0 = lake_.clock().now();
    std::vector<int> got = cpu.classify(x);
    EXPECT_GT(lake_.clock().now(), t0); // charged time
    EXPECT_EQ(got, net.classify(x));
}

TEST_F(BackendsTest, CpuInferenceCostsAboutFifteenMicros)
{
    // §7.1: "each inference on CPU takes around 15 us".
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    Matrix x = randomBatch(1, 31);
    Nanos t0 = lake_.clock().now();
    cpu.classify(x);
    double us = toUs(lake_.clock().now() - t0);
    EXPECT_GT(us, 10.0);
    EXPECT_LT(us, 20.0);
}

TEST_F(BackendsTest, LakeMlpMatchesCpuResults)
{
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp gpu(net, lake_.lib(), /*sync_copy=*/false, 64);
    Matrix x = randomBatch(32, 31);
    EXPECT_EQ(gpu.classify(x), net.classify(x));
}

TEST_F(BackendsTest, LakeMlpSyncCopyCostsMore)
{
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp async_mlp(net, lake_.lib(), false, 1024);
    LakeMlp sync_mlp(net, lake_.lib(), true, 1024);
    Matrix x = randomBatch(1024, 31);

    Nanos t0 = lake_.clock().now();
    async_mlp.classify(x);
    Nanos async_cost = lake_.clock().now() - t0;

    t0 = lake_.clock().now();
    sync_mlp.classify(x);
    Nanos sync_cost = lake_.clock().now() - t0;

    EXPECT_GT(sync_cost, async_cost);
}

TEST_F(BackendsTest, CrossoverExists)
{
    // Table 3: the GPU loses at batch 1 and wins at large batches.
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    LakeMlp gpu(net, lake_.lib(), false, 1024);

    auto time_of = [&](auto &engine, std::size_t batch) {
        Matrix x = randomBatch(batch, 31);
        Nanos t0 = lake_.clock().now();
        engine.classify(x);
        return lake_.clock().now() - t0;
    };

    EXPECT_LT(time_of(cpu, 1), time_of(gpu, 1));
    EXPECT_GT(time_of(cpu, 1024), time_of(gpu, 1024));
}

TEST_F(BackendsTest, LinnosCrossoverNearEight)
{
    // Table 3 row 1: crossover at 8 for the LinnOS model.
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    LakeMlp gpu(net, lake_.lib(), false, 64);

    auto time_of = [&](auto &engine, std::size_t batch) {
        Matrix x = randomBatch(batch, 31);
        Nanos t0 = lake_.clock().now();
        engine.classify(x);
        return lake_.clock().now() - t0;
    };

    std::size_t crossover = 0;
    for (std::size_t b = 1; b <= 64; b *= 2) {
        if (time_of(gpu, b) < time_of(cpu, b)) {
            crossover = b;
            break;
        }
    }
    EXPECT_GE(crossover, 2u);
    EXPECT_LE(crossover, 16u);
}

TEST_F(BackendsTest, CpuKnnMatchesModel)
{
    Knn knn(8, 3);
    std::vector<float> pt(8);
    for (int i = 0; i < 64; ++i) {
        for (auto &v : pt)
            v = static_cast<float>(rng_.uniform(-1.0, 1.0));
        knn.add(pt.data(), i % 2);
    }
    CpuKnn cpu(knn, lake_.kernelCpu());
    std::vector<float> q(4 * 8);
    for (auto &v : q)
        v = static_cast<float>(rng_.uniform(-1.0, 1.0));
    EXPECT_EQ(cpu.classify(q.data(), 4), knn.classifyBatch(q.data(), 4));
}

TEST_F(BackendsTest, LakeKnnMatchesCpu)
{
    Knn knn(16, 5);
    std::vector<float> pt(16);
    for (int i = 0; i < 200; ++i) {
        for (auto &v : pt)
            v = static_cast<float>(rng_.uniform(-1.0, 1.0));
        knn.add(pt.data(), i % 3);
    }
    LakeKnn gpu(knn, lake_.lib(), false, 64);
    std::vector<float> q(32 * 16);
    for (auto &v : q)
        v = static_cast<float>(rng_.uniform(-1.0, 1.0));
    EXPECT_EQ(gpu.classify(q.data(), 32), knn.classifyBatch(q.data(), 32));
}

TEST_F(BackendsTest, KleioServiceMatchesHostLstm)
{
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 16;
    cfg.layers = 2;
    cfg.output = 2;
    cfg.seq_len = 8;
    Lstm net(cfg, rng_);
    KleioService kleio(lake_.daemon(), net);

    const std::size_t batch = 12;
    std::vector<float> seqs(batch * cfg.seq_len);
    for (auto &v : seqs)
        v = static_cast<float>(rng_.uniform(0.0, 1.0));

    std::vector<int> got = kleio.classify(lake_.lib(), seqs, batch);
    EXPECT_EQ(got, net.classifyBatch(seqs.data(), batch));
}

TEST_F(BackendsTest, KleioChargesTensorFlowOverhead)
{
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.output = 2;
    cfg.seq_len = 4;
    Lstm net(cfg, rng_);
    KleioService kleio(lake_.daemon(), net);

    std::vector<float> seqs(4, 0.5f);
    Nanos t0 = lake_.clock().now();
    kleio.classify(lake_.lib(), seqs, 1);
    EXPECT_GE(lake_.clock().now() - t0, KleioService::kTfCallOverhead);
}

TEST_F(BackendsTest, GpuBusyTimeRecorded)
{
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp gpu(net, lake_.lib(), false, 64);
    Nanos busy_before = lake_.device().computeBusy().totalBusy();
    gpu.classify(randomBatch(32, 31));
    EXPECT_GT(lake_.device().computeBusy().totalBusy(), busy_before);
}

// ---- decoded models resident across launches ---------------------------

TEST_F(BackendsTest, ReuploadedModelScoresWithNewWeights)
{
    // The kernel keeps decoded models between launches. Bytes written
    // over the same allocation must be what the next launch scores
    // with, so the kept model is found by content, not by address.
    Mlp a(MlpConfig::linnos(), rng_);
    Mlp b = withNegatedHead(a);
    LakeMlp gpu(a, lake_.lib(), false, 64);
    Matrix x = randomBatch(32, 31);
    ASSERT_NE(a.classify(x), b.classify(x));

    Matrix logits;
    ASSERT_EQ(gpu.classify(x), a.classify(x));
    ASSERT_EQ(launchMlp(lake_.lib(), gpu.deviceModel(), x, 2, &logits),
              CuResult::Success);
    EXPECT_TRUE(sameBits(logits, a.forward(x)));

    std::vector<std::uint8_t> blob = b.serialize();
    ASSERT_EQ(lake_.lib().cuMemcpyHtoD(gpu.deviceModel(), blob.data(),
                                       blob.size()),
              CuResult::Success);
    EXPECT_EQ(gpu.classify(x), b.classify(x));
    ASSERT_EQ(launchMlp(lake_.lib(), gpu.deviceModel(), x, 2, &logits),
              CuResult::Success);
    EXPECT_TRUE(sameBits(logits, b.forward(x)));
}

TEST_F(BackendsTest, InterleavedModelsEachMatchTheirHostModel)
{
    Mlp a(MlpConfig::linnos(), rng_);
    Mlp b(MlpConfig::linnos(), rng_);
    LakeMlp ga(a, lake_.lib(), false, 64);
    LakeMlp gb(b, lake_.lib(), false, 64);
    for (int round = 0; round < 4; ++round) {
        Matrix x = randomBatch(32, 31);
        EXPECT_EQ(ga.classify(x), a.classify(x));
        EXPECT_EQ(gb.classify(x), b.classify(x));
        Matrix logits;
        ASSERT_EQ(launchMlp(lake_.lib(), ga.deviceModel(), x, 2, &logits),
                  CuResult::Success);
        EXPECT_TRUE(sameBits(logits, a.forward(x)));
        ASSERT_EQ(launchMlp(lake_.lib(), gb.deviceModel(), x, 2, &logits),
                  CuResult::Success);
        EXPECT_TRUE(sameBits(logits, b.forward(x)));
    }
}

TEST_F(BackendsTest, MoreModelsThanKeptStillMatch)
{
    // Six models round-robin: more than a thread keeps decoded, so
    // launches evict and re-decode; every answer must stay exact.
    std::vector<Mlp> nets;
    for (int i = 0; i < 6; ++i)
        nets.emplace_back(i % 2 ? MlpConfig::kml() : MlpConfig::linnos(),
                          rng_);
    std::vector<std::unique_ptr<LakeMlp>> gpus;
    for (const Mlp &n : nets)
        gpus.push_back(
            std::make_unique<LakeMlp>(n, lake_.lib(), false, 64));
    for (int round = 0; round < 3; ++round) {
        Matrix x = randomBatch(16, 31);
        for (std::size_t i = 0; i < nets.size(); ++i)
            EXPECT_EQ(gpus[i]->classify(x), nets[i].classify(x))
                << "model " << i << " round " << round;
    }
}

TEST_F(BackendsTest, CorruptedResidentModelFailsAndCallerFallsBack)
{
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    LakeMlp gpu(net, lake_.lib(), false, 64);
    Matrix x = randomBatch(32, 31);
    ASSERT_EQ(gpu.classify(x), net.classify(x)); // decoded and kept

    std::uint32_t bad_magic = 0xdeadbeefU;
    ASSERT_EQ(lake_.lib().cuMemcpyHtoD(gpu.deviceModel(), &bad_magic, 4),
              CuResult::Success);
    Matrix logits;
    EXPECT_EQ(launchMlp(lake_.lib(), gpu.deviceModel(), x, 2, &logits),
              CuResult::LaunchFailed);
    Result<std::vector<int>> r = gpu.tryClassify(x);
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().toString().find("CUDA_ERROR_LAUNCH_FAILED"),
              std::string::npos)
        << r.status().toString();
    EXPECT_EQ(cpu.classify(x), net.classify(x)); // the fallback
}

TEST_F(BackendsTest, TruncatedCopyOfResidentModelFails)
{
    // A blob one float short at a new address holds a kept model's
    // header and all but its last bytes; it must not be served.
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp gpu(net, lake_.lib(), false, 64);
    Matrix x = randomBatch(32, 31);
    ASSERT_EQ(gpu.classify(x), net.classify(x));

    std::vector<std::uint8_t> blob = net.serialize();
    DevicePtr d_short = 0;
    ASSERT_EQ(lake_.lib().cuMemAlloc(&d_short, blob.size() - 4),
              CuResult::Success);
    ASSERT_EQ(lake_.lib().cuMemcpyHtoD(d_short, blob.data(),
                                       blob.size() - 4),
              CuResult::Success);
    Matrix logits;
    EXPECT_EQ(launchMlp(lake_.lib(), d_short, x, 2, &logits),
              CuResult::LaunchFailed);
    lake_.lib().cuMemFree(d_short);
    EXPECT_EQ(gpu.classify(x), net.classify(x));
}

TEST(ResidentModelThreadsTest, TwoStacksClassifyConcurrently)
{
    // Each thread runs its own stack and model; kernel bodies on both
    // threads keep decoded models at once (run under TSan).
    registerMlKernels();
    auto worker = [](std::uint64_t seed, bool *ok) {
        core::Lake lake;
        Rng rng(seed);
        Mlp net(MlpConfig::linnos(), rng);
        LakeMlp gpu(net, lake.lib(), false, 32);
        Matrix x(32, net.config().input);
        bool all = true;
        for (int round = 0; round < 40; ++round) {
            for (std::size_t i = 0; i < x.size(); ++i)
                x.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
            all = all && gpu.classify(x) == net.classify(x);
        }
        *ok = all;
    };
    bool ok0 = false, ok1 = false;
    std::thread t0(worker, 11, &ok0);
    std::thread t1(worker, 12, &ok1);
    t0.join();
    t1.join();
    EXPECT_TRUE(ok0);
    EXPECT_TRUE(ok1);
}

// ---------------------------------------------------------------------
// Round trips per batch: pipelining (the default) against the paper's
// one message per command
// ---------------------------------------------------------------------

/** Doorbells rung and channel messages sent (both directions). */
struct Crossings
{
    std::uint64_t doorbells = 0;
    std::uint64_t messages = 0;
};

/** Crossings one call of @p fn makes on @p lake's remoting path. */
template <typename Fn>
Crossings
crossingsOf(core::Lake &lake, Fn &&fn)
{
    std::uint64_t d0 = lake.lib().doorbells();
    std::uint64_t m0 = lake.channel().messagesSent();
    fn();
    return {lake.lib().doorbells() - d0,
            lake.channel().messagesSent() - m0};
}

TEST(RoundTripTest, MlpBatchIsOneRoundTripByDefault)
{
    registerMlKernels();
    Rng rng(31);
    Mlp net(MlpConfig::linnos(), rng);
    core::Lake piped; // default configuration: pipelining on
    core::Lake paper(core::LakeConfig::paper());
    LakeMlp piped_mlp(net, piped.lib(), /*sync_copy=*/true, 32);
    LakeMlp paper_mlp(net, paper.lib(), /*sync_copy=*/true, 32);

    Matrix x(32, net.config().input);
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
        std::vector<int> a, b;
        // HtoD, launch and DtoH travel as one batch message; its
        // response is the only message back.
        Crossings c = crossingsOf(piped, [&] { a = piped_mlp.classify(x); });
        EXPECT_EQ(c.doorbells, 1u);
        EXPECT_EQ(c.messages, 2u);
        // The paper's path: sync HtoD, one-way launch, sync DtoH.
        c = crossingsOf(paper, [&] { b = paper_mlp.classify(x); });
        EXPECT_EQ(c.doorbells, 3u);
        EXPECT_EQ(c.messages, 5u);
        EXPECT_EQ(a, b);
        EXPECT_EQ(a, net.classify(x));
    }
}

TEST(RoundTripTest, KnnBatchIsOneRoundTripByDefault)
{
    registerMlKernels();
    Rng rng(32);
    Knn knn(8, 3);
    std::vector<float> pt(8);
    for (int i = 0; i < 64; ++i) {
        for (float &v : pt)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        knn.add(pt.data(), i % 3);
    }
    core::Lake piped;
    core::Lake paper(core::LakeConfig::paper());
    LakeKnn piped_knn(knn, piped.lib(), /*sync_copy=*/true, 16);
    LakeKnn paper_knn(knn, paper.lib(), /*sync_copy=*/true, 16);

    std::vector<float> q(16 * 8);
    for (float &v : q)
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    std::vector<int> a, b;
    EXPECT_EQ(crossingsOf(piped, [&] { a = piped_knn.classify(q.data(), 16); })
                  .doorbells,
              1u);
    EXPECT_EQ(crossingsOf(paper, [&] { b = paper_knn.classify(q.data(), 16); })
                  .doorbells,
              3u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, knn.classifyBatch(q.data(), 16));
}

TEST(RoundTripTest, CipherExtentIsOneRoundTripByDefault)
{
    std::uint8_t key[32];
    for (std::size_t i = 0; i < sizeof key; ++i)
        key[i] = static_cast<std::uint8_t>(7 * i + 1);
    constexpr std::size_t kExtent = 4096;
    core::Lake piped;
    core::Lake paper(core::LakeConfig::paper());
    crypto::LakeGpuCipher piped_gcm(key, sizeof key, piped.lib(), kExtent);
    crypto::LakeGpuCipher paper_gcm(key, sizeof key, paper.lib(), kExtent);

    Rng rng(33);
    std::vector<std::uint8_t> plain(kExtent);
    for (std::uint8_t &b : plain)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    std::uint8_t iv[crypto::kGcmIvBytes] = {9, 8, 7, 6, 5, 4,
                                            3, 2, 1, 0, 1, 2};
    std::vector<std::uint8_t> ct_a(kExtent), ct_b(kExtent);
    std::uint8_t tag_a[crypto::kGcmTagBytes], tag_b[crypto::kGcmTagBytes];

    // ctl + data HtoD, launch and data DtoH ride the ctl DtoH's message.
    Crossings c = crossingsOf(piped, [&] {
        piped_gcm.encryptExtent(iv, plain.data(), kExtent, ct_a.data(),
                                tag_a);
    });
    EXPECT_EQ(c.doorbells, 1u);
    EXPECT_EQ(c.messages, 2u);
    // The paper's path: three one-way posts and two sync DtoHs.
    c = crossingsOf(paper, [&] {
        paper_gcm.encryptExtent(iv, plain.data(), kExtent, ct_b.data(),
                                tag_b);
    });
    EXPECT_EQ(c.doorbells, 5u);
    EXPECT_EQ(ct_a, ct_b);
    EXPECT_EQ(std::memcmp(tag_a, tag_b, sizeof tag_a), 0);

    std::vector<std::uint8_t> back(kExtent);
    c = crossingsOf(piped, [&] {
        EXPECT_TRUE(piped_gcm.decryptExtent(iv, ct_a.data(), kExtent,
                                            tag_a, back.data()));
    });
    EXPECT_EQ(c.doorbells, 1u);
    EXPECT_EQ(back, plain);
}

} // namespace
} // namespace lake::ml
