// Shared helper for the merge suites: streams in-memory shards (each
// index-ascending, as every shard writer emits them) through
// exp::merge_stream, one memory source per shard.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "exp/merge.hpp"

namespace amo::testing {

inline exp::merge_result merge_memory(
    std::vector<std::vector<exp::record>> shards) {
  std::vector<std::unique_ptr<exp::record_source>> sources;
  sources.reserve(shards.size());
  for (std::vector<exp::record>& shard : shards) {
    sources.push_back(exp::make_memory_source(std::move(shard)));
  }
  return exp::merge_stream(std::move(sources));
}

}  // namespace amo::testing
