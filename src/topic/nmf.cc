#include "topic/nmf.h"

#include <algorithm>
#include <cmath>

namespace newsdiff::topic {
namespace {

constexpr double kEps = 1e-12;
constexpr double kFloor = 1e-10;

}  // namespace

double NmfObjective(const la::CsrMatrix& a, const la::Matrix& w,
                    const la::Matrix& h) {
  // ||A - WH||^2 = ||A||^2 - 2<A, WH> + trace((W^T W)(H H^T)).
  double a2 = a.SquaredFrobeniusNorm();
  double cross = a.InnerProductWithProduct(w, h);
  la::Matrix wtw = la::MatMulTransA(w, w);       // k x k
  la::Matrix hht = la::MatMulTransB(h, h);       // k x k
  double wh2 = 0.0;
  const size_t k = wtw.rows();
  for (size_t i = 0; i < k; ++i) {
    const double* wrow = wtw.RowPtr(i);
    const double* hrow = hht.RowPtr(i);
    for (size_t j = 0; j < k; ++j) wh2 += wrow[j] * hrow[j];
  }
  return a2 - 2.0 * cross + wh2;
}

StatusOr<NmfResult> Nmf(const la::CsrMatrix& a, const NmfOptions& options) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  const size_t k = options.components;
  if (k == 0) return Status::InvalidArgument("components must be positive");
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("matrix must be non-empty");
  }
  if (k > n || k > m) {
    return Status::InvalidArgument(
        "components must not exceed either matrix dimension");
  }

  // Guard against a zero evaluation stride (would divide by zero below).
  const size_t eval_every = std::max<size_t>(1, options.eval_every);

  Rng rng(options.seed);
  // Scale the random init so that E[WH] matches the mean of A, which keeps
  // early multiplicative steps well-conditioned.
  double mean =
      a.nnz() > 0
          ? a.SquaredFrobeniusNorm() /
                static_cast<double>(a.nnz())  // mean of squares of nnz
          : 1.0;
  double scale = std::sqrt(std::sqrt(mean) / static_cast<double>(k)) + 1e-3;
  NmfResult result;
  result.w = la::Matrix::Random(n, k, 0.0, scale, rng);
  result.h = la::Matrix::Random(k, m, 0.0, scale, rng);

  double initial_obj = NmfObjective(a, result.w, result.h);
  result.objective_history.push_back(initial_obj);
  double prev_obj = initial_obj;

  // A^T once up front: the per-iteration W^T A becomes a row-partitioned
  // gather (parallelizable, and bitwise equal to the scatter-style
  // TransposeMultiplyDense — see CsrMatrix::Transposed).
  const Parallelism& par = options.parallelism;
  const la::CsrMatrix at = a.Transposed();

  for (size_t iter = 1; iter <= options.max_iterations; ++iter) {
    // H update: H .* (W^T A) ./ (W^T W H + eps).
    {
      la::Matrix wta = at.MultiplyDense(result.w, par).Transposed();  // k x m
      la::Matrix wtw = la::MatMulTransA(result.w, result.w, par);     // k x k
      la::Matrix denom = la::MatMul(wtw, result.h, par);              // k x m
      result.h.MultiplicativeUpdate(wta, denom, kEps, kFloor, par);
    }
    // W update: W .* (A H^T) ./ (W H H^T + eps).
    {
      la::Matrix aht = a.MultiplyDenseTransposed(result.h, par);  // n x k
      la::Matrix hht = la::MatMulTransB(result.h, result.h, par); // k x k
      la::Matrix denom = la::MatMul(result.w, hht, par);          // n x k
      result.w.MultiplicativeUpdate(aht, denom, kEps, kFloor, par);
    }
    result.iterations = iter;

    if (iter % eval_every == 0 || iter == options.max_iterations) {
      double obj = NmfObjective(a, result.w, result.h);
      result.objective_history.push_back(obj);
      if (initial_obj > 0.0 &&
          (prev_obj - obj) / initial_obj < options.tolerance) {
        break;
      }
      prev_obj = obj;
    }
  }
  result.final_objective = result.objective_history.back();
  return result;
}

}  // namespace newsdiff::topic
