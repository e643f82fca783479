#include "text/ner.h"

#include "common/strings.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace newsdiff::text {
namespace {

struct RawToken {
  std::string_view word;  // view into the input
  bool sentence_start;
};

bool IsCapitalized(std::string_view w) {
  return !w.empty() && ascii::Is(w[0], ascii::kUpper);
}

bool AllUpper(std::string_view w) {
  if (w.empty()) return false;
  for (char c : w) {
    if (ascii::Is(c, ascii::kLower)) return false;
  }
  return true;
}

std::vector<RawToken> Scan(std::string_view input) {
  std::vector<RawToken> tokens;
  const size_t n = input.size();
  size_t i = 0;
  bool sentence_start = true;
  while (i < n) {
    const char c = input[i];
    if (ascii::Is(c, ascii::kAlpha)) {
      size_t start = i;
      while (i < n &&
             (ascii::Is(input[i], ascii::kAlnum) || input[i] == '\'')) {
        ++i;
      }
      tokens.push_back({input.substr(start, i - start), sentence_start});
      sentence_start = false;
    } else {
      if (c == '.' || c == '!' || c == '?') sentence_start = true;
      ++i;
    }
  }
  return tokens;
}

}  // namespace

std::vector<Entity> ExtractEntities(std::string_view input) {
  std::vector<RawToken> tokens = Scan(input);
  std::vector<Entity> entities;
  size_t i = 0;
  while (i < tokens.size()) {
    if (!IsCapitalized(tokens[i].word)) {
      ++i;
      continue;
    }
    // A sentence-initial capitalised word only begins an entity if it is
    // followed by another capitalised word, is all-caps (an acronym), or is
    // not a common word; otherwise it is ordinary sentence case.
    bool next_cap =
        i + 1 < tokens.size() && IsCapitalized(tokens[i + 1].word);
    if (tokens[i].sentence_start && !next_cap && !AllUpper(tokens[i].word)) {
      ++i;
      continue;
    }
    std::string lower = ToLowerAscii(tokens[i].word);
    // A lone capitalised stopword ("The", "It") is not an entity, but a
    // capitalised stopword-spelled word followed by another capital can
    // begin one ("New York").
    if (IsStopword(lower) && !next_cap) {
      ++i;
      continue;
    }
    // Extend the run across capitalised words, allowing one lowercase
    // linker ("of", "the", "de") between capitalised words.
    size_t j = i + 1;
    size_t last_cap = i;
    while (j < tokens.size()) {
      if (IsCapitalized(tokens[j].word)) {
        last_cap = j;
        ++j;
        continue;
      }
      std::string lw = ToLowerAscii(tokens[j].word);
      bool linker = (lw == "of" || lw == "the" || lw == "de" || lw == "von");
      if (linker && j + 1 < tokens.size() &&
          IsCapitalized(tokens[j + 1].word)) {
        ++j;
        continue;
      }
      break;
    }
    // Build the entity over [i, last_cap].
    std::vector<std::string> parts;
    for (size_t k = i; k <= last_cap; ++k) {
      parts.push_back(ToLowerAscii(tokens[k].word));
    }
    Entity e;
    e.concept_token = Join(parts, "_");
    const std::string_view last = tokens[last_cap].word;
    e.surface.assign(tokens[i].word.data(), last.data() + last.size());
    entities.push_back(std::move(e));
    i = last_cap + 1;
  }
  return entities;
}

std::string FoldEntities(std::string_view input) {
  std::vector<Entity> entities = ExtractEntities(input);
  if (entities.empty()) return std::string(input);
  std::string out;
  size_t cursor = 0;
  size_t search_from = 0;
  for (const Entity& e : entities) {
    size_t pos = input.find(e.surface, search_from);
    if (pos == std::string_view::npos) continue;
    out.append(input.substr(cursor, pos - cursor));
    out.append(e.concept_token);
    cursor = pos + e.surface.size();
    search_from = cursor;
  }
  out.append(input.substr(cursor));
  return out;
}

}  // namespace newsdiff::text
