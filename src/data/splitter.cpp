#include "data/splitter.hpp"

#include <cstdio>
#include <future>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace ipa::data {
namespace {

using FrameIndex = DatasetReader::FrameIndex;

/// A part boundary: a record index and the file offset of its frame.
struct Boundary {
  std::uint64_t record = 0;
  std::uint64_t offset = 0;
};

/// Part k starts at the first record whose cumulative framed bytes reach
/// k*total/N. The sparse index gives the cumulative bytes at every stride-th
/// record, so each boundary walks only the frames of the one index block it
/// falls in. bounds[0] and bounds[N] are the data region's ends.
Result<std::vector<Boundary>> place_boundaries(const DatasetReader& source, int num_parts) {
  const FrameIndex& index = source.frame_index();
  const std::uint64_t records = source.size();
  const auto parts = static_cast<std::uint64_t>(num_parts);
  std::vector<Boundary> bounds(static_cast<std::size_t>(parts) + 1,
                               Boundary{records, index.data_end});
  bounds.front() = Boundary{0, index.data_begin};
  if (records == 0) return bounds;  // every part is empty

  // Known points: every index entry, then the end of the data region.
  const std::size_t points = index.offsets.size() + 1;
  const auto point = [&](std::size_t s) {
    return s < index.offsets.size() ? Boundary{s * index.stride, index.offsets[s]}
                                    : Boundary{records, index.data_end};
  };
  const std::uint64_t total = index.data_end - index.data_begin;
  for (std::uint64_t k = 1; k < parts; ++k) {
    const std::uint64_t target = index.data_begin + total * k / parts;
    // First known point at or past the target (the last one always is); the
    // boundary lies in the block that ends there.
    std::size_t lo = 0;
    std::size_t hi = points - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (point(mid).offset >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const Boundary from = point(lo == 0 ? 0 : lo - 1);
    const Boundary to = point(lo == 0 ? 1 : lo);
    FrameCursor frames = source.frames(from.offset, to.offset);
    std::uint64_t record = from.record;
    bool placed = false;
    while (!placed) {
      IPA_ASSIGN_OR_RETURN(const FrameCursor::Run run, frames.next());
      if (run.frames() == 0) return data_loss(FrameCursor::kNoTiling);
      for (std::size_t i = 0; i < run.frames() && !placed; ++i) {
        const std::uint64_t frame_end = run.offset + run.end(i);
        ++record;
        if (record >= to.record && (record > to.record || frame_end != to.offset)) {
          return data_loss(FrameCursor::kNoTiling);
        }
        if (frame_end >= target) {
          bounds[static_cast<std::size_t>(k)] = Boundary{record, frame_end};
          placed = true;
        }
      }
    }
  }
  return bounds;
}

/// Write one part: copy the source's record frames [from, to) into a fresh
/// part file in runs. The walk checks every frame header it copies, that the
/// frames tile [from.offset, to.offset) with exactly to.record - from.record
/// records, and that each sparse-index entry in the range sits on its
/// record's frame. Each task owns its cursor and part file, and the cursors
/// pread the shared source handle, so parts stream out concurrently.
Result<PartInfo> write_part(const DatasetReader& source, Boundary from, Boundary to, int k,
                            int num_parts, const std::string& out_prefix) {
  const DatasetInfo& info = source.info();
  const FrameIndex& index = source.frame_index();
  auto metadata = info.metadata;
  metadata["part.index"] = std::to_string(k);
  metadata["part.count"] = std::to_string(num_parts);
  metadata["part.first"] = std::to_string(from.record);
  metadata["part.parent"] = info.name;

  PartInfo part;
  part.path = strings::format("%s.part%d.ipd", out_prefix.c_str(), k);
  part.first_record = from.record;
  part.record_count = to.record - from.record;

  IPA_ASSIGN_OR_RETURN(
      DatasetWriter writer,
      DatasetWriter::create(part.path, info.name + "/part" + std::to_string(k),
                            std::move(metadata)));
  FrameCursor frames = source.frames(from.offset, to.offset);
  std::uint64_t record = from.record;
  while (true) {
    IPA_ASSIGN_OR_RETURN(const FrameCursor::Run run, frames.next());
    if (run.frames() == 0) break;
    if (run.frames() > to.record - record) return data_loss(FrameCursor::kNoTiling);
    for (const std::size_t start : run.starts) {
      if (record % index.stride == 0 &&
          index.offsets[record / index.stride] != run.offset + start) {
        return data_loss("split: sparse index disagrees with the record frames");
      }
      ++record;
    }
    IPA_RETURN_IF_ERROR(writer.append_frames(run.bytes.data(), run.bytes.size(), run.starts));
  }
  if (record != to.record) return data_loss(FrameCursor::kNoTiling);
  IPA_RETURN_IF_ERROR(writer.finish());

  // Record the finished part's size.
  if (std::FILE* fp = std::fopen(part.path.c_str(), "rb")) {
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    part.bytes = size < 0 ? 0 : static_cast<std::uint64_t>(size);
    std::fclose(fp);
  }
  return part;
}

}  // namespace

Result<SplitResult> split_dataset(const std::string& source_path, const std::string& out_prefix,
                                  int num_parts) {
  if (num_parts <= 0) return invalid_argument("split: num_parts must be > 0");
  IPA_ASSIGN_OR_RETURN(DatasetReader reader, DatasetReader::open(source_path));

  SplitResult result;
  result.total_records = reader.size();
  result.total_bytes = reader.info().file_bytes;

  IPA_ASSIGN_OR_RETURN(const std::vector<Boundary> bounds, place_boundaries(reader, num_parts));

  // One writer task per part on the shared site pool (the paper:
  // "transfers are done in parallel"). Results are collected in part order,
  // so the first failing part determines the error deterministically.
  std::vector<std::future<Result<PartInfo>>> parts;
  parts.reserve(static_cast<std::size_t>(num_parts));
  for (int k = 0; k < num_parts; ++k) {
    const Boundary from = bounds[static_cast<std::size_t>(k)];
    const Boundary to = bounds[static_cast<std::size_t>(k) + 1];
    parts.push_back(site_pool().submit([&reader, from, to, k, num_parts, &out_prefix] {
      return write_part(reader, from, to, k, num_parts, out_prefix);
    }));
  }
  Status failure = Status::ok();
  for (auto& future : parts) {
    Result<PartInfo> part = future.get();
    if (!part.is_ok()) {
      if (failure.is_ok()) failure = part.status();
      continue;
    }
    result.parts.push_back(std::move(*part));
  }
  IPA_RETURN_IF_ERROR(failure);
  return result;
}

Status verify_split(const std::string& source_path, const SplitResult& split) {
  IPA_ASSIGN_OR_RETURN(DatasetReader source, DatasetReader::open(source_path));
  std::uint64_t checked = 0;
  for (const PartInfo& part : split.parts) {
    IPA_ASSIGN_OR_RETURN(DatasetReader reader, DatasetReader::open(part.path));
    if (reader.size() != part.record_count) {
      return data_loss("split: part record count mismatch in " + part.path);
    }
    if (part.first_record != checked) {
      return data_loss("split: parts are not contiguous at " + part.path);
    }
    for (std::uint64_t i = 0; i < reader.size(); ++i) {
      IPA_ASSIGN_OR_RETURN(const Record from_part, reader.next());
      IPA_ASSIGN_OR_RETURN(const Record from_source, source.next());
      if (!(from_part == from_source)) {
        return data_loss(strings::format("split: record %llu differs in %s",
                                         static_cast<unsigned long long>(checked + i),
                                         part.path.c_str()));
      }
    }
    checked += reader.size();
  }
  if (checked != source.size()) {
    return data_loss("split: parts cover " + std::to_string(checked) + " of " +
                     std::to_string(source.size()) + " records");
  }
  return Status::ok();
}

}  // namespace ipa::data
