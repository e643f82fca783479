#ifndef NEWSDIFF_CORE_COLLECTION_H_
#define NEWSDIFF_CORE_COLLECTION_H_

#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "store/database.h"

namespace newsdiff::core {

/// The data-collection/storage boundary of the architecture (§4.1):
/// the crawler modules write raw documents into the store; these readers
/// load them back as typed records for the processing modules.

/// Reads the "news" collection. Missing fields default to empty/zero.
StatusOr<std::vector<NewsRecord>> LoadNews(const store::Database& db);

/// Reads the "tweets" collection, joining each tweet's author against the
/// "users" collection to fill follower metadata. The first user document
/// per id wins; an unknown author has zero followers. Writes nothing.
StatusOr<std::vector<TweetRecord>> LoadTweets(const store::Database& db);

}  // namespace newsdiff::core

#endif  // NEWSDIFF_CORE_COLLECTION_H_
