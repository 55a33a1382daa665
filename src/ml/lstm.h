#ifndef LAKE_ML_LSTM_H
#define LAKE_ML_LSTM_H

/**
 * @file
 * Stacked LSTM classifier.
 *
 * Kleio (§7.2) "uses Tensorflow to construct a model with two LSTM
 * layers" to predict page warmth from a page's access history. This is
 * that model family: N LSTM layers over a feature sequence, last hidden
 * state through a dense head to class logits. Inference-only — Kleio
 * trains offline in user space; the kernel consumes the trained model
 * through LAKE's high-level API.
 */

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "ml/matrix.h"

namespace lake::ml {

/** Shape of a stacked-LSTM classifier. */
struct LstmConfig
{
    std::uint32_t input = 1;   //!< features per timestep
    std::uint32_t hidden = 64; //!< hidden width per layer
    std::uint32_t layers = 2;  //!< stacked LSTM layers
    std::uint32_t output = 2;  //!< classes from the dense head
    std::uint32_t seq_len = 32; //!< timesteps per sample

    /**
     * Kleio's page-warmth model: two LSTM layers over a page's recent
     * access-count history, binary hot/cold head.
     */
    static LstmConfig kleio();
};

/**
 * The network. Gate layout follows cuDNN order [i, f, g, o].
 */
class Lstm
{
  public:
    /** Randomly initialized (Xavier-ish, forget-gate bias +1). */
    Lstm(LstmConfig config, Rng &rng);

    /** Shape. */
    const LstmConfig &config() const { return config_; }

    /**
     * Forward pass over one sample.
     * @param seq seq_len x input values, timestep-major
     * @return class logits (output wide)
     */
    std::vector<float> forward(const std::vector<float> &seq) const;

    /** Argmax class of one sample. */
    int classify(const std::vector<float> &seq) const;

    /**
     * Argmax class per sample of @p batch samples concatenated at
     * @p seqs (batch x seq_len x input values).
     */
    std::vector<int> classifyBatch(const float *seqs,
                                   std::size_t batch) const;

    /** FLOPs of one sample's forward pass. */
    double flopsPerSample() const;

    /** Total parameter count. */
    std::size_t paramCount() const;

    /** Serializes config + weights. */
    std::vector<std::uint8_t> serialize() const;
    /** Reconstructs from serialize() output. */
    static Result<Lstm> deserialize(const std::vector<std::uint8_t> &blob);

    /// @name Parameter access (GPU upload)
    /// @{
    /** Per-layer input weights, (4*hidden x in). */
    const std::vector<Matrix> &wx() const { return wx_; }
    /** Per-layer recurrent weights, (4*hidden x hidden). */
    const std::vector<Matrix> &wh() const { return wh_; }
    /** Per-layer gate biases, 4*hidden long. */
    const std::vector<std::vector<float>> &bias() const { return b_; }
    /** Dense head weights, (output x hidden). */
    const Matrix &headW() const { return head_w_; }
    /** Dense head bias. */
    const std::vector<float> &headB() const { return head_b_; }
    /// @}

    /// @name Mutable parameter access (offline training only)
    /// The kernel-facing inference path never mutates a model; these
    /// exist for the user-space trainer (ml/lstm_train.h) and tests.
    /// @{
    Matrix &mutableWx(std::size_t l) { return wx_[l]; }
    Matrix &mutableWh(std::size_t l) { return wh_[l]; }
    std::vector<float> &mutableBias(std::size_t l) { return b_[l]; }
    Matrix &mutableHeadW() { return head_w_; }
    std::vector<float> &mutableHeadB() { return head_b_; }
    /// @}

  private:
    explicit Lstm(LstmConfig config);

    LstmConfig config_;
    std::vector<Matrix> wx_;
    std::vector<Matrix> wh_;
    std::vector<std::vector<float>> b_;
    Matrix head_w_;
    std::vector<float> head_b_;
};

} // namespace lake::ml

#endif // LAKE_ML_LSTM_H
