#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/logging.h"
#include "ml/compute.h"

namespace lake::ml {

namespace {

/** Argmax per row of a logits matrix. */
std::vector<int>
argmaxRows(const Matrix &logits)
{
    std::vector<int> out(logits.rows());
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const float *row = logits.row(r);
        out[r] = static_cast<int>(
            std::max_element(row, row + logits.cols()) - row);
    }
    return out;
}

/** ReLU over every element of @p a, in place. */
void
reluInPlace(Matrix &a)
{
    float *p = a.data();
    for (std::size_t i = 0, n = a.size(); i < n; ++i)
        p[i] = std::max(0.0f, p[i]);
}

} // namespace

MlpConfig
MlpConfig::linnos(std::size_t extra_layers)
{
    MlpConfig c;
    c.input = 31;
    c.hidden.assign(1 + extra_layers, 256);
    c.output = 2;
    return c;
}

MlpConfig
MlpConfig::mllb()
{
    // Width calibrated so the CPU/GPU crossover lands at Table 3's 256
    // tasks given the kernel-space CPU model.
    MlpConfig c;
    c.input = 22;
    c.hidden = {6};
    c.output = 2;
    return c;
}

MlpConfig
MlpConfig::kml()
{
    // Width calibrated so the CPU/GPU crossover lands at Table 3's 64
    // classifications given the kernel-space CPU model.
    MlpConfig c;
    c.input = 31;
    c.hidden = {18};
    c.output = 4;
    return c;
}

std::vector<std::uint32_t>
Mlp::dims() const
{
    std::vector<std::uint32_t> d;
    d.push_back(config_.input);
    for (std::uint32_t h : config_.hidden)
        d.push_back(h);
    d.push_back(config_.output);
    return d;
}

Mlp::Mlp(MlpConfig config) : config_(std::move(config))
{
    LAKE_ASSERT(config_.input > 0 && config_.output > 0,
                "mlp needs nonzero input/output widths");
}

Mlp::Mlp(MlpConfig config, Rng &rng) : Mlp(std::move(config))
{
    std::vector<std::uint32_t> d = dims();
    for (std::size_t l = 0; l + 1 < d.size(); ++l) {
        double scale = std::sqrt(2.0 / d[l]);
        weights_.push_back(Matrix::randn(d[l + 1], d[l], rng, scale));
        biases_.emplace_back(d[l + 1], 0.0f);
    }
    repack();
}

void
Mlp::repack()
{
    packed_.resize(weights_.size());
    packed_bias_.resize(weights_.size());
    packed_out_.resize(weights_.size());
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        const Matrix &w = weights_[l]; // out x in
        std::size_t padded = compute::padTile(w.rows());
        packed_[l].assign(w.cols() * padded, 0.0f);
        for (std::size_t o = 0; o < w.rows(); ++o)
            for (std::size_t i = 0; i < w.cols(); ++i)
                packed_[l][i * padded + o] = w.at(o, i);
        packed_bias_[l].assign(padded, 0.0f);
        std::copy(biases_[l].begin(), biases_[l].end(),
                  packed_bias_[l].begin());
        packed_out_[l] = padded;
    }
}

void
Mlp::layerForward(std::size_t l, const float *x, std::size_t n,
                  std::size_t x_stride, float *y) const
{
    const std::size_t in = weights_[l].cols();
    const std::size_t out = weights_[l].rows();
    const std::size_t padded = packed_out_[l];
    if (padded == out) {
        compute::affinePacked(x, n, in, x_stride, packed_[l].data(),
                              out, packed_bias_[l].data(), y);
        return;
    }
    // Narrow layer: compute into a tile-padded scratch, then drop the
    // zero columns. Each real element's reduction is untouched.
    Matrix pad(n, padded);
    compute::affinePacked(x, n, in, x_stride, packed_[l].data(), padded,
                          packed_bias_[l].data(), pad.data());
    for (std::size_t r = 0; r < n; ++r)
        std::copy(pad.row(r), pad.row(r) + out, y + r * out);
}

Matrix
Mlp::forward(const Matrix &x) const
{
    LAKE_ASSERT(x.cols() == config_.input,
                "mlp input width %zu != expected %u", x.cols(),
                config_.input);
    Matrix y(x.rows(), config_.output);
    forwardInto(x.data(), x.rows(), x.cols(), y.data());
    return y;
}

void
Mlp::forwardInto(const float *x, std::size_t n, std::size_t x_stride,
                 float *y) const
{
    // Hidden layers (ReLU) run in scratch matrices; the output layer
    // writes the logits where the caller wants them.
    const float *in = x;
    std::size_t stride = x_stride;
    Matrix a;
    for (std::size_t l = 0; l + 1 < weights_.size(); ++l) {
        Matrix next(n, weights_[l].rows());
        layerForward(l, in, n, stride, next.data());
        reluInPlace(next);
        a = std::move(next);
        in = a.data();
        stride = a.cols();
    }
    layerForward(weights_.size() - 1, in, n, stride, y);
}

Matrix
Mlp::forward(const std::vector<MatrixView> &xs) const
{
    std::size_t n = 0;
    for (const MatrixView &v : xs) {
        LAKE_ASSERT(v.rows() == 0 || v.cols() == config_.input,
                    "mlp view width %zu != expected %u", v.cols(),
                    config_.input);
        n += v.rows();
    }

    // Layer 0 consumes each strided window in place, writing into the
    // stacked activation matrix. Each row's reduction is identical to
    // the contiguous path (the strided kernels only change where rows
    // start), so results are bit-identical to packing first — and the
    // cached weight transpose is shared across the views, so a
    // multi-registry flush packs nothing at all.
    Matrix a(n, weights_[0].rows());
    std::size_t r0 = 0;
    for (const MatrixView &v : xs) {
        if (v.rows() == 0)
            continue;
        layerForward(0, v.data(), v.rows(), v.stride(), a.row(r0));
        r0 += v.rows();
    }

    for (std::size_t l = 0; l < weights_.size(); ++l) {
        if (l > 0) {
            Matrix next(a.rows(), weights_[l].rows());
            layerForward(l, a.data(), a.rows(), a.cols(), next.data());
            a = std::move(next);
        }
        if (l + 1 < weights_.size()) // hidden layers: ReLU
            reluInPlace(a);
    }
    return a;
}

std::vector<int>
Mlp::classify(const Matrix &x) const
{
    return argmaxRows(forward(x));
}

std::vector<int>
Mlp::classify(const std::vector<MatrixView> &xs) const
{
    return argmaxRows(forward(xs));
}

Matrix
softmax(const Matrix &logits)
{
    Matrix p(logits.rows(), logits.cols());
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const float *in = logits.row(r);
        float *out = p.row(r);
        float mx = *std::max_element(in, in + logits.cols());
        float sum = 0.0f;
        for (std::size_t c = 0; c < logits.cols(); ++c) {
            out[c] = std::exp(in[c] - mx);
            sum += out[c];
        }
        for (std::size_t c = 0; c < logits.cols(); ++c)
            out[c] /= sum;
    }
    return p;
}

double
Mlp::trainStep(const Matrix &x, const std::vector<int> &labels, float lr)
{
    LAKE_ASSERT(labels.size() == x.rows(), "labels/batch size mismatch");
    std::size_t n = x.rows();

    // Forward, keeping post-activation values per layer.
    std::vector<Matrix> acts;
    acts.push_back(x);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        Matrix a = Matrix::affine(acts.back(), weights_[l], biases_[l]);
        if (l + 1 < weights_.size())
            reluInPlace(a);
        acts.push_back(std::move(a));
    }

    // Softmax cross-entropy loss and its gradient w.r.t. the logits.
    Matrix probs = softmax(acts.back());
    double loss = 0.0;
    Matrix delta(n, config_.output); // dL/dlogits
    for (std::size_t r = 0; r < n; ++r) {
        int y = labels[r];
        LAKE_ASSERT(y >= 0 && static_cast<std::uint32_t>(y) <
                                  config_.output,
                    "label %d out of range", y);
        loss += -std::log(std::max(probs.at(r, y), 1e-12f));
        for (std::size_t c = 0; c < config_.output; ++c) {
            float t = (static_cast<int>(c) == y) ? 1.0f : 0.0f;
            delta.at(r, c) = (probs.at(r, c) - t) / static_cast<float>(n);
        }
    }

    // Backward through each layer, applying SGD updates in place.
    for (std::size_t li = weights_.size(); li-- > 0;) {
        const Matrix &a_in = acts[li];
        Matrix &w = weights_[li];
        std::vector<float> &b = biases_[li];

        // Propagate to the previous layer before mutating w.
        Matrix next_delta;
        if (li > 0) {
            next_delta = Matrix(n, w.cols());
            for (std::size_t r = 0; r < n; ++r) {
                for (std::size_t i = 0; i < w.cols(); ++i) {
                    float acc = 0.0f;
                    for (std::size_t o = 0; o < w.rows(); ++o)
                        acc += delta.at(r, o) * w.at(o, i);
                    // ReLU gate of the previous layer's activation.
                    next_delta.at(r, i) =
                        acts[li].at(r, i) > 0.0f ? acc : 0.0f;
                }
            }
        }

        // dW = delta^T * a_in; db = column sums of delta.
        for (std::size_t o = 0; o < w.rows(); ++o) {
            float db = 0.0f;
            for (std::size_t r = 0; r < n; ++r)
                db += delta.at(r, o);
            b[o] -= lr * db;
            for (std::size_t i = 0; i < w.cols(); ++i) {
                float dw = 0.0f;
                for (std::size_t r = 0; r < n; ++r)
                    dw += delta.at(r, o) * a_in.at(r, i);
                w.at(o, i) -= lr * dw;
            }
        }

        if (li > 0)
            delta = std::move(next_delta);
    }

    repack();
    return loss / static_cast<double>(n);
}

double
Mlp::accuracy(const Matrix &x, const std::vector<int> &labels) const
{
    std::vector<int> pred = classify(x);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < pred.size(); ++i)
        hits += pred[i] == labels[i] ? 1 : 0;
    return pred.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(pred.size());
}

double
Mlp::flopsPerSample() const
{
    double flops = 0.0;
    for (const Matrix &w : weights_)
        flops += 2.0 * static_cast<double>(w.rows()) * w.cols();
    return flops;
}

std::size_t
Mlp::paramCount() const
{
    std::size_t n = 0;
    for (std::size_t l = 0; l < weights_.size(); ++l)
        n += weights_[l].size() + biases_[l].size();
    return n;
}

std::vector<std::uint8_t>
Mlp::serialize() const
{
    std::vector<std::uint8_t> blob;
    auto put32 = [&blob](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            blob.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto putFloats = [&blob](const float *p, std::size_t n) {
        const auto *bytes = reinterpret_cast<const std::uint8_t *>(p);
        blob.insert(blob.end(), bytes, bytes + n * sizeof(float));
    };

    put32(0x4d4c504dU); // 'MLPM'
    put32(config_.input);
    put32(static_cast<std::uint32_t>(config_.hidden.size()));
    for (std::uint32_t h : config_.hidden)
        put32(h);
    put32(config_.output);
    for (std::size_t l = 0; l < weights_.size(); ++l) {
        putFloats(weights_[l].data(), weights_[l].size());
        putFloats(biases_[l].data(), biases_[l].size());
    }
    return blob;
}

Result<Mlp>
Mlp::deserialize(const std::vector<std::uint8_t> &blob)
{
    std::size_t pos = 0;
    auto get32 = [&](std::uint32_t *out) {
        if (pos + 4 > blob.size())
            return false;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(blob[pos + i]) << (8 * i);
        pos += 4;
        *out = v;
        return true;
    };

    auto bad = [](const char *why) {
        return Result<Mlp>(Status(Code::InvalidArgument, why));
    };

    std::uint32_t magic = 0;
    if (!get32(&magic) || magic != 0x4d4c504dU)
        return bad("bad MLP magic");

    MlpConfig cfg;
    std::uint32_t nhidden = 0;
    if (!get32(&cfg.input) || !get32(&nhidden) || nhidden > 64)
        return bad("bad MLP header");
    cfg.hidden.resize(nhidden);
    for (std::uint32_t &h : cfg.hidden) {
        if (!get32(&h))
            return bad("truncated hidden widths");
    }
    if (!get32(&cfg.output))
        return bad("truncated output width");
    if (cfg.input == 0 || cfg.output == 0)
        return bad("zero layer width");

    Mlp net(cfg);
    std::vector<std::uint32_t> d = net.dims();
    for (std::size_t l = 0; l + 1 < d.size(); ++l) {
        Matrix w(d[l + 1], d[l]);
        std::size_t wbytes = w.size() * sizeof(float);
        if (pos + wbytes > blob.size())
            return bad("truncated weights");
        std::memcpy(w.data(), blob.data() + pos, wbytes);
        pos += wbytes;

        std::vector<float> b(d[l + 1]);
        std::size_t bbytes = b.size() * sizeof(float);
        if (pos + bbytes > blob.size())
            return bad("truncated biases");
        std::memcpy(b.data(), blob.data() + pos, bbytes);
        pos += bbytes;

        net.weights_.push_back(std::move(w));
        net.biases_.push_back(std::move(b));
    }
    if (pos != blob.size())
        return bad("trailing bytes in MLP blob");
    net.repack();
    return Result<Mlp>(std::move(net));
}

} // namespace lake::ml
