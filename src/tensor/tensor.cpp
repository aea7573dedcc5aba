#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace metro::tensor {

std::size_t NumElements(const Shape& shape) {
  std::size_t n = 1;
  for (const int d : shape) {
    assert(d >= 0);
    n *= std::size_t(d);
  }
  return shape.empty() ? 0 : n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(NumElements(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(NumElements(shape_), fill) {}

Tensor Tensor::FromVector(std::vector<float> values) {
  Tensor t;
  t.shape_ = {int(values.size())};
  t.data_ = std::move(values);
  return t;
}

Tensor Tensor::RandomNormal(Shape shape, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = float(rng.Normal(0.0, stddev));
  return t;
}

Tensor Tensor::HeNormal(Shape shape, int fan_in, Rng& rng) {
  assert(fan_in > 0);
  return RandomNormal(std::move(shape), std::sqrt(2.0f / float(fan_in)), rng);
}

Tensor Tensor::Reshape(Shape shape) const {
  assert(NumElements(shape) == data_.size());
  Tensor t = *this;
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::SliceBatch(int begin, int end) const {
  assert(rank() >= 1 && begin >= 0 && begin <= end && end <= shape_[0]);
  Shape out_shape = shape_;
  out_shape[0] = end - begin;
  const std::size_t stride = shape_[0] == 0 ? 0 : data_.size() / shape_[0];
  Tensor out(out_shape);
  std::copy_n(data_.begin() + std::ptrdiff_t(begin * stride),
              std::size_t(end - begin) * stride, out.data_.begin());
  return out;
}

void Tensor::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor& Tensor::operator+=(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

float Tensor::Sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

std::size_t Tensor::ArgMax() const {
  assert(!data_.empty());
  return std::size_t(std::max_element(data_.begin(), data_.end()) -
                     data_.begin());
}

float Tensor::Rms() const {
  if (data_.empty()) return 0.0f;
  double acc = 0.0;
  for (const float v : data_) acc += double(v) * v;
  return float(std::sqrt(acc / double(data_.size())));
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1));
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const auto ad = a.data();
  const auto bd = b.data();
  auto cd = c.data();
  for (int i = 0; i < m; ++i) {
    const std::size_t arow = std::size_t(i) * k;
    for (int j = 0; j < n; ++j) {
      const std::size_t brow = std::size_t(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += ad[arow + p] * bd[brow + p];
      cd[std::size_t(i) * n + j] = acc;
    }
  }
  return c;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0));
  const int k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const auto ad = a.data();
  const auto bd = b.data();
  auto cd = c.data();
  for (int p = 0; p < k; ++p) {
    const std::size_t arow = std::size_t(p) * m;
    const std::size_t brow = std::size_t(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = ad[arow + i];
      if (av == 0.0f) continue;
      const std::size_t crow = std::size_t(i) * n;
      for (int j = 0; j < n; ++j) cd[crow + j] += av * bd[brow + j];
    }
  }
  return c;
}

}  // namespace metro::tensor
