#pragma once

// Dense float tensor.
//
// Row-major storage; 4-D activations use NHWC (batch, height, width, channel),
// the layout the convolution kernels in ops.h expect. Small by design: the
// paper's split models (Figs. 5, 7, 8) are compact enough to train on CPU.

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace metro::tensor {

/// Shape of a tensor; up to 4 dimensions in practice.
using Shape = std::vector<int>;

/// Number of elements a shape addresses.
std::size_t NumElements(const Shape& shape);

/// "[2, 3, 3, 16]"
std::string ShapeToString(const Shape& shape);

/// Dense row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty 0-element tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(Shape shape, float fill);

  /// 1-D tensor from values.
  static Tensor FromVector(std::vector<float> values);

  /// Tensor of `shape` whose elements are drawn i.i.d. N(0, stddev^2).
  static Tensor RandomNormal(Shape shape, float stddev, Rng& rng);

  /// He-normal initialization for a layer with `fan_in` inputs.
  static Tensor HeNormal(Shape shape, int fan_in, Rng& rng);

  const Shape& shape() const { return shape_; }
  int dim(int i) const { return shape_[std::size_t(i)]; }
  int rank() const { return int(shape_.size()); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (rows, cols).
  float& at(int r, int c) {
    assert(rank() == 2);
    return data_[std::size_t(r) * shape_[1] + c];
  }
  float at(int r, int c) const {
    assert(rank() == 2);
    return data_[std::size_t(r) * shape_[1] + c];
  }

  /// 4-D NHWC access.
  float& at(int n, int h, int w, int c) {
    assert(rank() == 4);
    return data_[Offset4(n, h, w, c)];
  }
  float at(int n, int h, int w, int c) const {
    assert(rank() == 4);
    return data_[Offset4(n, h, w, c)];
  }

  /// Reinterprets as `shape` (element count must match).
  Tensor Reshape(Shape shape) const;

  /// Extracts rows [begin, end) of the leading dimension.
  Tensor SliceBatch(int begin, int end) const;

  void Fill(float v);

  /// Elementwise in-place operations.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);

  /// Elementwise a + b (shapes must match).
  friend Tensor operator+(Tensor a, const Tensor& b) { return a += b; }
  friend Tensor operator-(Tensor a, const Tensor& b) { return a -= b; }
  friend Tensor operator*(Tensor a, float s) { return a *= s; }

  /// Sum of all elements.
  float Sum() const;
  /// Index of the largest element.
  std::size_t ArgMax() const;
  /// Square root of the mean of squares — handy in tests/diagnostics.
  float Rms() const;

 private:
  std::size_t Offset4(int n, int h, int w, int c) const {
    return ((std::size_t(n) * shape_[1] + h) * shape_[2] + w) * shape_[3] + c;
  }

  Shape shape_;
  std::vector<float> data_;
};

/// C = A(MxK) * B^T where B is (NxK).
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

/// C = A^T(KxM -> MxK view) * B(KxN) — i.e. a' has shape (K, M).
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);

}  // namespace metro::tensor
