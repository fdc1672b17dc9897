// Dataset splitting: the paper's Splitter service core.
//
// "The splitter service will import the dataset from the actual location
// and split it into a pre-configured number of approximately equal parts"
// (§3.4). Parts are contiguous record ranges, balanced by encoded bytes so
// heterogeneous records still yield even analysis work.
//
// No record is ever decoded. Part boundaries are placed from the source's
// sparse offset index: it gives the cumulative framed bytes at every
// stride-th record, so each boundary crosses the frame headers of only the
// one index block it falls in. The parts are then written concurrently on
// the shared site pool. Each task copies its range in runs of whole frames
// from its own FrameCursor over the source's file handle, which checks every
// frame header: the frames must tile the task's byte range exactly, with the
// last part ending at the footer, so together the tasks check that the whole
// record region tiles. The output bytes are identical to a sequential
// decode/re-encode split.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "data/dataset.hpp"

namespace ipa::data {

struct PartInfo {
  std::string path;             // part file location
  std::uint64_t first_record = 0;
  std::uint64_t record_count = 0;
  std::uint64_t bytes = 0;      // part file size
};

struct SplitResult {
  std::vector<PartInfo> parts;
  std::uint64_t total_records = 0;
  std::uint64_t total_bytes = 0;  // source file size
};

/// Split `source_path` into `num_parts` files named
/// "<out_prefix>.partK.ipd" (K = 0..num_parts-1). Each part carries the
/// parent's metadata plus part.index/part.count/part.first entries.
/// When the dataset has fewer records than parts, the surplus parts are
/// created empty so every analysis engine still receives a file.
Result<SplitResult> split_dataset(const std::string& source_path, const std::string& out_prefix,
                                  int num_parts);

/// Invariant check used by tests and the splitter service: the parts'
/// records, concatenated in order, must equal the source records.
Status verify_split(const std::string& source_path, const SplitResult& split);

}  // namespace ipa::data
