#include "zoo/cca.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "tensor/ops.h"

namespace metro::zoo {

using tensor::MatMul;
using tensor::MatMulTransposeA;
using tensor::MatMulTransposeB;

namespace {

/// Column means of (n, d).
std::vector<float> ColMeans(const Tensor& x) {
  const int n = x.dim(0), d = x.dim(1);
  std::vector<double> acc(std::size_t(d), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) acc[std::size_t(j)] += x[std::size_t(i) * d + j];
  }
  std::vector<float> means(static_cast<std::size_t>(d));
  for (int j = 0; j < d; ++j) means[std::size_t(j)] = float(acc[std::size_t(j)] / n);
  return means;
}

Tensor CenterRows(const Tensor& x, const std::vector<float>& means) {
  const int n = x.dim(0), d = x.dim(1);
  Tensor out = x;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) out[std::size_t(i) * d + j] -= means[std::size_t(j)];
  }
  return out;
}

/// (1/(n-1)) A^T B for centered matrices.
Tensor Covariance(const Tensor& a, const Tensor& b) {
  Tensor c = MatMulTransposeA(a, b);
  c *= 1.0f / float(a.dim(0) - 1);
  return c;
}

}  // namespace

EigenResult SymmetricEigen(const Tensor& m, int max_sweeps) {
  assert(m.rank() == 2 && m.dim(0) == m.dim(1));
  const int d = m.dim(0);
  Tensor a = m;
  Tensor v({d, d});
  for (int i = 0; i < d; ++i) v.at(i, i) = 1.0f;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Off-diagonal Frobenius norm — stop when essentially diagonal.
    double off = 0;
    for (int p = 0; p < d; ++p) {
      for (int q = p + 1; q < d; ++q) off += double(a.at(p, q)) * a.at(p, q);
    }
    if (off < 1e-18) break;

    for (int p = 0; p < d; ++p) {
      for (int q = p + 1; q < d; ++q) {
        const float apq = a.at(p, q);
        if (std::fabs(apq) < 1e-12f) continue;
        const float app = a.at(p, p), aqq = a.at(q, q);
        const float theta = 0.5f * std::atan2(2 * apq, aqq - app);
        const float c = std::cos(theta), s = std::sin(theta);
        // Rotate rows/cols p and q of A, accumulate into V.
        for (int k = 0; k < d; ++k) {
          const float akp = a.at(k, p), akq = a.at(k, q);
          a.at(k, p) = c * akp - s * akq;
          a.at(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < d; ++k) {
          const float apk = a.at(p, k), aqk = a.at(q, k);
          a.at(p, k) = c * apk - s * aqk;
          a.at(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < d; ++k) {
          const float vkp = v.at(k, p), vkq = v.at(k, q);
          v.at(k, p) = c * vkp - s * vkq;
          v.at(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort descending by eigenvalue.
  std::vector<int> order(static_cast<std::size_t>(d));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int i, int j) { return a.at(i, i) > a.at(j, j); });

  EigenResult res;
  res.values.resize(std::size_t(d));
  res.vectors = Tensor({d, d});
  for (int col = 0; col < d; ++col) {
    res.values[std::size_t(col)] = a.at(order[std::size_t(col)], order[std::size_t(col)]);
    for (int row = 0; row < d; ++row) {
      res.vectors.at(row, col) = v.at(row, order[std::size_t(col)]);
    }
  }
  return res;
}

Tensor SymmetricInverseSqrt(const Tensor& m, float floor) {
  const int d = m.dim(0);
  EigenResult eig = SymmetricEigen(m);
  // V diag(1/sqrt(lambda)) V^T
  Tensor scaled = eig.vectors;  // columns scaled by 1/sqrt(lambda)
  for (int col = 0; col < d; ++col) {
    const float lambda = std::max(eig.values[std::size_t(col)], floor);
    const float s = 1.0f / std::sqrt(lambda);
    for (int row = 0; row < d; ++row) scaled.at(row, col) *= s;
  }
  return MatMulTransposeB(scaled, eig.vectors);
}

Result<CcaModel> FitCca(const Tensor& x, const Tensor& y, int k, float reg) {
  if (x.rank() != 2 || y.rank() != 2 || x.dim(0) != y.dim(0)) {
    return InvalidArgumentError("CCA inputs must be (n,p) and (n,q)");
  }
  const int n = x.dim(0), p = x.dim(1), q = y.dim(1);
  if (k <= 0 || k > std::min(p, q)) {
    return InvalidArgumentError("k must be in [1, min(p,q)]");
  }
  if (n <= std::max(p, q)) {
    return InvalidArgumentError("need more samples than features");
  }

  CcaModel model;
  model.mean_x = ColMeans(x);
  model.mean_y = ColMeans(y);
  const Tensor xc = CenterRows(x, model.mean_x);
  const Tensor yc = CenterRows(y, model.mean_y);

  Tensor sxx = Covariance(xc, xc);
  Tensor syy = Covariance(yc, yc);
  const Tensor sxy = Covariance(xc, yc);
  for (int i = 0; i < p; ++i) sxx.at(i, i) += reg;
  for (int i = 0; i < q; ++i) syy.at(i, i) += reg;

  const Tensor sxx_is = SymmetricInverseSqrt(sxx);
  const Tensor syy_is = SymmetricInverseSqrt(syy);
  // M = Sxx^{-1/2} Sxy Syy^{-1/2}; canonical correlations are M's singular
  // values, obtained from the eigensystem of M M^T (p x p).
  const Tensor m = MatMul(MatMul(sxx_is, sxy), syy_is);
  const Tensor mmt = MatMulTransposeB(m, m);
  EigenResult eig = SymmetricEigen(mmt);

  model.correlations.resize(std::size_t(k));
  Tensor u({p, k});
  for (int col = 0; col < k; ++col) {
    model.correlations[std::size_t(col)] =
        std::sqrt(std::clamp(eig.values[std::size_t(col)], 0.0f, 1.0f));
    for (int row = 0; row < p; ++row) u.at(row, col) = eig.vectors.at(row, col);
  }

  // wx = Sxx^{-1/2} U ; wy = Syy^{-1/2} M^T U diag(1/rho).
  model.wx = MatMul(sxx_is, u);
  Tensor mtu = MatMulTransposeA(m, u);  // (q, k)
  for (int col = 0; col < k; ++col) {
    const float rho = std::max(model.correlations[std::size_t(col)], 1e-6f);
    for (int row = 0; row < q; ++row) mtu.at(row, col) /= rho;
  }
  model.wy = MatMul(syy_is, mtu);
  return model;
}

namespace {

Tensor Project(const Tensor& x, const std::vector<float>& mean,
               const Tensor& w) {
  return MatMul(CenterRows(x, mean), w);
}

}  // namespace

Tensor CcaProjectX(const CcaModel& model, const Tensor& x) {
  return Project(x, model.mean_x, model.wx);
}

Tensor CcaProjectY(const CcaModel& model, const Tensor& y) {
  return Project(y, model.mean_y, model.wy);
}

}  // namespace metro::zoo
