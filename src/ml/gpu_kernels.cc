#include "ml/gpu_kernels.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/logging.h"
#include "gpu/kernels.h"
#include "ml/knn.h"
#include "ml/lstm.h"
#include "ml/mlp.h"

namespace lake::ml {

using gpu::CuResult;
using gpu::Device;
using gpu::LaunchConfig;

namespace {

/** Reads a little-endian u32 at @p pos from device-resident bytes. */
bool
peek32(const Device &dev, gpu::DevicePtr base, std::size_t pos,
       std::uint32_t *out)
{
    const void *p = dev.resolve(base + pos, 4);
    if (!p)
        return false;
    std::memcpy(out, p, 4);
    return true;
}

/** Decoded models each kernel-body thread keeps per model type. */
constexpr std::size_t kResidentModels = 4;

/**
 * The decoded model for the @p bytes of blob at @p ptr. A real device
 * keeps a model resident after one upload; here each thread keeps its
 * last kResidentModels decodes per model type next to the bytes they
 * came from, and reuses one only while the device bytes still equal
 * them. Keyed on content, so a model re-uploaded into the same
 * allocation, a reused address or a new device needs no invalidation,
 * and only bytes that once decoded cleanly can hit. A miss decodes as
 * every launch used to and replaces the least recently used entry.
 * @return nullptr when the pointer is bad or the blob does not decode;
 *         valid until this thread's next call.
 */
template <typename Model>
const Model *
residentModel(const Device &dev, gpu::DevicePtr ptr, std::size_t bytes)
{
    struct Entry
    {
        std::vector<std::uint8_t> blob;
        Model model;
        std::uint64_t used;
    };
    thread_local std::vector<Entry> cache;
    thread_local std::uint64_t tick = 0;

    const auto *dev_bytes =
        static_cast<const std::uint8_t *>(dev.resolve(ptr, bytes));
    if (!dev_bytes)
        return nullptr;
    for (Entry &e : cache) {
        if (e.blob.size() == bytes &&
            std::memcmp(e.blob.data(), dev_bytes, bytes) == 0) {
            e.used = ++tick;
            return &e.model;
        }
    }

    std::vector<std::uint8_t> blob(dev_bytes, dev_bytes + bytes);
    Result<Model> net = Model::deserialize(blob);
    if (!net.isOk())
        return nullptr;
    Entry fresh{std::move(blob), net.takeValue(), ++tick};
    if (cache.size() < kResidentModels) {
        cache.push_back(std::move(fresh));
        return &cache.back().model;
    }
    Entry &lru = *std::min_element(
        cache.begin(), cache.end(),
        [](const Entry &a, const Entry &b) { return a.used < b.used; });
    lru = std::move(fresh);
    return &lru.model;
}

/** Parses the MLP blob header into full layer widths. */
bool
mlpDims(const Device &dev, gpu::DevicePtr model,
        std::vector<std::uint32_t> *dims)
{
    std::uint32_t magic = 0, input = 0, nhidden = 0;
    if (!peek32(dev, model, 0, &magic) || magic != 0x4d4c504dU)
        return false;
    if (!peek32(dev, model, 4, &input) || !peek32(dev, model, 8, &nhidden))
        return false;
    if (nhidden > 64)
        return false;
    dims->clear();
    dims->push_back(input);
    for (std::uint32_t i = 0; i < nhidden; ++i) {
        std::uint32_t h = 0;
        if (!peek32(dev, model, 12 + 4 * i, &h))
            return false;
        dims->push_back(h);
    }
    std::uint32_t output = 0;
    if (!peek32(dev, model, 12 + 4 * nhidden, &output))
        return false;
    dims->push_back(output);
    return true;
}

/** Byte length of an MLP blob with the given widths. */
std::size_t
mlpBlobBytes(const std::vector<std::uint32_t> &dims)
{
    std::size_t bytes = 12 + 4 * (dims.size() - 2) + 4; // header
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        bytes += (static_cast<std::size_t>(dims[l]) * dims[l + 1] +
                  dims[l + 1]) *
                 sizeof(float);
    return bytes;
}

double
mlpFlops(const std::vector<std::uint32_t> &dims)
{
    double flops = 0.0;
    for (std::size_t l = 0; l + 1 < dims.size(); ++l)
        flops += 2.0 * dims[l] * dims[l + 1];
    return flops;
}

CuResult
mlpForwardBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    gpu::DevicePtr model = cfg.u64Arg(0);
    std::uint64_t batch = cfg.u64Arg(3);

    std::vector<std::uint32_t> dims;
    if (!mlpDims(dev, model, &dims))
        return CuResult::LaunchFailed;
    const Mlp *net = residentModel<Mlp>(dev, model, mlpBlobBytes(dims));
    if (!net)
        return CuResult::LaunchFailed;

    std::uint32_t in_w = dims.front(), out_w = dims.back();
    const auto *in = static_cast<const float *>(
        dev.resolve(cfg.u64Arg(1), batch * in_w * sizeof(float)));
    auto *out = static_cast<float *>(
        dev.resolve(cfg.u64Arg(2), batch * out_w * sizeof(float)));
    if (!in || !out)
        return CuResult::LaunchFailed;

    // The forward pass reads the batch where it sits in device memory
    // and writes the logits straight into the output buffer.
    net->forwardInto(in, batch, in_w, out);
    return CuResult::Success;
}

Nanos
mlpForwardCost(const Device &dev, const LaunchConfig &cfg)
{
    std::vector<std::uint32_t> dims;
    if (cfg.args.size() != 4 || !mlpDims(dev, cfg.u64Arg(0), &dims))
        return 0;
    std::uint64_t batch = cfg.u64Arg(3);
    double flops = mlpFlops(dims) * static_cast<double>(batch);
    // Every weight is streamed from device memory at least once per
    // launch; small batches are bandwidth-bound on exactly this.
    std::size_t bytes = mlpBlobBytes(dims) +
                        batch * (dims.front() + dims.back()) *
                            sizeof(float);
    return dev.computeTime(flops, bytes);
}

CuResult
lstmForwardBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return CuResult::InvalidValue;
    gpu::DevicePtr model = cfg.u64Arg(0);
    std::uint64_t batch = cfg.u64Arg(3);

    std::uint32_t magic = 0;
    if (!peek32(dev, model, 0, &magic) || magic != 0x4c53544dU)
        return CuResult::LaunchFailed;
    // The LSTM header has no length field; the blob length follows
    // from its config fields.
    std::uint32_t input = 0, hidden = 0, layers = 0, output = 0, seq = 0;
    if (!peek32(dev, model, 4, &input) || !peek32(dev, model, 8, &hidden) ||
        !peek32(dev, model, 12, &layers) ||
        !peek32(dev, model, 16, &output) || !peek32(dev, model, 20, &seq)) {
        return CuResult::LaunchFailed;
    }
    std::size_t bytes = 24;
    for (std::uint32_t l = 0; l < layers; ++l) {
        std::size_t in = l == 0 ? input : hidden;
        bytes += (4ull * hidden * in + 4ull * hidden * hidden +
                  4ull * hidden) *
                 sizeof(float);
    }
    bytes += (static_cast<std::size_t>(output) * hidden + output) *
             sizeof(float);

    const Lstm *net = residentModel<Lstm>(dev, model, bytes);
    if (!net)
        return CuResult::LaunchFailed;

    std::size_t per = static_cast<std::size_t>(seq) * input;
    const auto *in_p = static_cast<const float *>(
        dev.resolve(cfg.u64Arg(1), batch * per * sizeof(float)));
    auto *out_p = static_cast<std::int32_t *>(
        dev.resolve(cfg.u64Arg(2), batch * sizeof(std::int32_t)));
    if (!in_p || !out_p)
        return CuResult::LaunchFailed;

    // Classify the batch where it sits in device memory.
    std::vector<int> labels = net->classifyBatch(in_p, batch);
    for (std::size_t i = 0; i < labels.size(); ++i)
        out_p[i] = labels[i];
    return CuResult::Success;
}

Nanos
lstmForwardCost(const Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 4)
        return 0;
    gpu::DevicePtr model = cfg.u64Arg(0);
    std::uint32_t input = 0, hidden = 0, layers = 0, seq = 0;
    if (!peek32(dev, model, 4, &input) || !peek32(dev, model, 8, &hidden) ||
        !peek32(dev, model, 12, &layers) || !peek32(dev, model, 20, &seq))
        return 0;
    std::uint64_t batch = cfg.u64Arg(3);

    double flops = 0.0;
    std::size_t weight_bytes = 0;
    for (std::uint32_t l = 0; l < layers; ++l) {
        double in = l == 0 ? input : hidden;
        flops += (2.0 * 4 * hidden * (in + hidden) + 10.0 * hidden) * seq;
        weight_bytes += static_cast<std::size_t>(
            (4.0 * hidden * in + 4.0 * hidden * hidden) * sizeof(float));
    }
    flops *= static_cast<double>(batch);
    // Recurrent nets re-stream the weights every timestep and cannot
    // batch across the time dimension, so the roofline is bandwidth:
    // weights x seq_len, amortized over at most a warp of samples.
    double sample_groups = std::max(1.0, static_cast<double>(batch) / 32.0);
    std::size_t bytes = static_cast<std::size_t>(
        static_cast<double>(weight_bytes) * seq * sample_groups);
    return dev.computeTime(flops, bytes);
}

CuResult
knnQueryBody(Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 8 && cfg.args.size() != 9)
        return CuResult::InvalidValue;
    std::uint64_t n_refs = cfg.u64Arg(4);
    std::uint64_t n_queries = cfg.u64Arg(5);
    std::uint64_t dim = cfg.u64Arg(6);
    std::uint64_t k = cfg.u64Arg(7);
    // Optional host-side sampling stride: the modeled device always
    // performs the full scan (see knnQueryCost), but the simulation
    // host may evaluate a strided reference subset to keep large
    // benchmark configurations tractable.
    std::uint64_t stride = cfg.args.size() == 9
                               ? std::max<std::uint64_t>(1, cfg.u64Arg(8))
                               : 1;

    const auto *refs = static_cast<const float *>(
        dev.resolve(cfg.u64Arg(0), n_refs * dim * sizeof(float)));
    const auto *labels = static_cast<const std::int32_t *>(
        dev.resolve(cfg.u64Arg(1), n_refs * sizeof(std::int32_t)));
    const auto *queries = static_cast<const float *>(
        dev.resolve(cfg.u64Arg(2), n_queries * dim * sizeof(float)));
    auto *out = static_cast<std::int32_t *>(
        dev.resolve(cfg.u64Arg(3), n_queries * sizeof(std::int32_t)));
    if (!refs || !labels || !queries || !out)
        return CuResult::LaunchFailed;

    Knn knn(dim, k);
    for (std::uint64_t r = 0; r < n_refs; r += stride)
        knn.add(refs + r * dim, labels[r]);
    // classifyBatch is the batched GEMM + top-k path, parallel over
    // queries on the host ThreadPool — the "GPU" functor really uses
    // all host cores while knnQueryCost charges device time.
    std::vector<int> result = knn.classifyBatch(queries, n_queries);
    for (std::uint64_t q = 0; q < n_queries; ++q)
        out[q] = result[q];
    return CuResult::Success;
}

Nanos
knnQueryCost(const Device &dev, const LaunchConfig &cfg)
{
    if (cfg.args.size() != 8 && cfg.args.size() != 9)
        return 0;
    std::uint64_t n_refs = cfg.u64Arg(4);
    std::uint64_t n_queries = cfg.u64Arg(5);
    std::uint64_t dim = cfg.u64Arg(6);
    double flops = 3.0 * static_cast<double>(dim) * n_refs * n_queries;
    // Batched distance evaluation is dense-GEMM-like and sustains well
    // above the latency-bound small-kernel rate; model 1.75x.
    flops /= 1.75;
    std::size_t bytes = (n_refs + n_queries) * dim * sizeof(float);
    return dev.computeTime(flops, bytes);
}

} // namespace

void
registerMlKernels()
{
    // Once per process, however many threads race the first call.
    [[maybe_unused]] static const bool registered = [] {
        gpu::KernelRegistry &r = gpu::KernelRegistry::global();
        r.add("mlp_forward", mlpForwardBody, mlpForwardCost);
        r.add("lstm_forward", lstmForwardBody, lstmForwardCost);
        r.add("knn_query", knnQueryBody, knnQueryCost);
        return true;
    }();
}

} // namespace lake::ml
