#include "corpus/vocabulary.h"

#include <cassert>

namespace newsdiff::corpus {

uint32_t Vocabulary::GetOrAdd(std::string_view term) {
  auto it = index_.find(term);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(terms_.size());
  terms_.emplace_back(term);
  doc_freq_.push_back(0);
  term_freq_.push_back(0);
  index_.emplace(terms_.back(), id);
  return id;
}

uint32_t Vocabulary::Get(std::string_view term) const {
  auto it = index_.find(term);
  return it == index_.end() ? kUnknownTerm : it->second;
}

const std::string& Vocabulary::Term(uint32_t id) const {
  assert(id < terms_.size());
  return terms_[id];
}

}  // namespace newsdiff::corpus
