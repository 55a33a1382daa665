#ifndef LAKE_ML_GPU_KERNELS_H
#define LAKE_ML_GPU_KERNELS_H

/**
 * @file
 * GPU kernels backing the ML models.
 *
 * Registers three kernels with the simulated device (the CUDA ports the
 * paper describes building for LinnOS, MLLB, KML and the kNN detector):
 *
 *  - "mlp_forward":  args = model ptr, input ptr, logits ptr, batch.
 *    The model is an Mlp::serialize() blob resident in device memory.
 *  - "lstm_forward": args = model ptr, input ptr, label ptr, batch.
 *    The model is an Lstm::serialize() blob; input is batch samples of
 *    seq_len x input floats; output is one int32 class per sample.
 *  - "knn_query":    args = refs ptr, labels ptr, queries ptr, out ptr,
 *    n_refs, n_queries, dim, k. Output is one int32 label per query.
 */

namespace lake::ml {

/** Registers the ML kernels; idempotent and thread-safe. */
void registerMlKernels();

} // namespace lake::ml

#endif // LAKE_ML_GPU_KERNELS_H
