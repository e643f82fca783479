#include "la/weight_cache.h"

#include <algorithm>
#include <utility>

namespace newsdiff::la {

std::shared_ptr<const PackedB> PackedWeightCache::GetPacked(
    uint64_t key, uint64_t version, const Matrix& weights,
    const KernelConfig& cfg) {
  const size_t want_kc = std::max<size_t>(cfg.kc, 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.version == version &&
        it->second.packed != nullptr && it->second.kc == want_kc &&
        it->second.nc >= cfg.nc) {
      ++stats_.hits;
      return it->second.packed;
    }
  }
  auto packed = std::make_shared<const PackedB>(PackMatrixB(weights, cfg));
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[key];
  ++stats_.misses;
  if (entry.version != version) {
    // Generation change. In-flight calls that already pinned the old
    // shared_ptr keep it until they finish.
    if (entry.packed != nullptr) ++stats_.swaps;
    entry.version = version;
  }
  entry.kc = packed->kc;
  entry.nc = packed->nc;
  entry.packed = packed;
  return packed;
}

WeightCacheStats PackedWeightCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PackedWeightCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace newsdiff::la
