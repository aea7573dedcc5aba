#pragma once

// Canonical correlation analysis (Sec. III-C).
//
// Classical linear CCA between two views: finds projection directions
// maximizing the correlation between projected views. Small dense linear
// algebra only (Jacobi eigensolver); view dimensions are expected to be
// modest (tens), which matches the fused feature vectors this analyzes.

#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace metro::zoo {

using tensor::Tensor;

/// Fitted CCA model.
struct CcaModel {
  std::vector<float> correlations;  ///< canonical correlations, descending
  Tensor wx;                        ///< (p, k) projection for view X
  Tensor wy;                        ///< (q, k) projection for view Y
  std::vector<float> mean_x, mean_y;
};

/// Fits CCA with `k` components on row-sample matrices X (n, p), Y (n, q).
/// Requires n > max(p, q) and k <= min(p, q). Covariance matrices are ridge-
/// regularized by `reg` for numerical stability.
Result<CcaModel> FitCca(const Tensor& x, const Tensor& y, int k,
                        float reg = 1e-4f);

/// Projects new rows of view X (n, p) -> (n, k) canonical space.
Tensor CcaProjectX(const CcaModel& model, const Tensor& x);
/// Projects new rows of view Y (n, q) -> (n, k) canonical space.
Tensor CcaProjectY(const CcaModel& model, const Tensor& y);

// --- Small symmetric linear-algebra helpers (exposed for tests) ---

/// Jacobi eigendecomposition of a symmetric matrix (d, d).
/// Eigenvalues descend; eigenvectors are the *columns* of `vectors`.
struct EigenResult {
  std::vector<float> values;
  Tensor vectors;  ///< (d, d)
};
EigenResult SymmetricEigen(const Tensor& m, int max_sweeps = 64);

/// m^{-1/2} for a symmetric positive-definite matrix via its eigensystem.
Tensor SymmetricInverseSqrt(const Tensor& m, float floor = 1e-8f);

}  // namespace metro::zoo
