#include "nn/dense.h"

#include <cassert>
#include <cmath>

#include "la/kernels.h"

namespace newsdiff::nn {

Dense::Dense(size_t in_features, size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      w_(in_features, out_features),
      b_(1, out_features),
      dw_(in_features, out_features),
      db_(1, out_features) {
  // Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6 / (in + out)).
  double limit =
      std::sqrt(6.0 / static_cast<double>(in_features + out_features));
  for (double& v : w_.data()) v = rng.Uniform(-limit, limit);
}

la::Matrix Dense::Forward(const la::Matrix& input, bool training) {
  assert(input.cols() == in_features_);
  if (training) {
    input_ = input;
    packed_.reset();  // the optimizer step after this pass moves w_
  }
  la::Matrix out;
  if (packed_.has_value()) {
    // The prepacked product is bitwise identical to the per-call blocked
    // GEMM: same panels, same traversal, packed once instead of per call.
    la::internal::BlockedMatMulPrepacked(input, *packed_, &out, par_);
  } else {
    out = la::MatMul(input, w_, par_);
  }
  ParallelFor(par_, out.rows(), [&](size_t, size_t begin, size_t end) {
    const double* bias = b_.RowPtr(0);
    for (size_t r = begin; r < end; ++r) {
      double* row = out.RowPtr(r);
      for (size_t c = 0; c < out.cols(); ++c) row[c] += bias[c];
    }
  });
  return out;
}

la::Matrix Dense::Backward(const la::Matrix& grad_output) {
  BackwardParams(grad_output);
  return la::MatMulTransB(grad_output, w_, par_);
}

void Dense::BackwardParams(const la::Matrix& grad_output) {
  assert(grad_output.cols() == out_features_);
  assert(input_.rows() == grad_output.rows());
  // Into-variant reuses dw_'s storage: no allocation per minibatch.
  la::MatMulTransAInto(input_, grad_output, &dw_, par_);
  db_.Fill(0.0);
  double* db = db_.RowPtr(0);
  for (size_t r = 0; r < grad_output.rows(); ++r) {
    la::AxpyN(db, grad_output.RowPtr(r), 1.0, out_features_);
  }
}

void Dense::Prepack() { packed_ = la::PackMatrixB(w_); }

std::vector<Param> Dense::Params() {
  return {{&w_, &dw_, "dense.w"}, {&b_, &db_, "dense.b"}};
}

size_t Dense::OutputSize(size_t input_size) const {
  assert(input_size == in_features_);
  (void)input_size;
  return out_features_;
}

}  // namespace newsdiff::nn
