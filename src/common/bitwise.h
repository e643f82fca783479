#ifndef NEWSDIFF_COMMON_BITWISE_H_
#define NEWSDIFF_COMMON_BITWISE_H_

// The comparator of the exactness gates (parallel == serial, batch-of-N ==
// N x batch-of-1, a kernel against its reference loop), shared by tests
// and benches. Double `==` is not enough: it passes +0.0 against -0.0 and
// fails two identical NaNs.

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

namespace newsdiff {

/// Equal bit patterns, so +0.0 and -0.0 differ. Any two NaNs match
/// whatever their payloads: when two NaNs meet, x86 keeps the first
/// operand's, and the compiler may commute a multiply or an add.
inline bool SameBits(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Equal lengths and SameBits element by element.
inline bool BitwiseEqual(std::span<const double> a,
                         std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// Equal shapes and SameBits element by element, for a matrix with rows(),
/// cols() and contiguous data() (la::Matrix).
template <typename M>
  requires requires(const M& m) {
    m.rows();
    m.cols();
    m.data();
  }
bool BitwiseEqual(const M& a, const M& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BitwiseEqual(std::span<const double>(a.data()),
                      std::span<const double>(b.data()));
}

}  // namespace newsdiff

#endif  // NEWSDIFF_COMMON_BITWISE_H_
