#include "data/splitter.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <span>

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

/// Buffered forward walk over the record frames in [begin, end) of a source
/// file, handed out as runs of whole frames. Every frame header is checked as
/// it is crossed: a corrupt or oversized length, or a frame running past
/// `end`, is data loss. A walk that reaches `end` therefore proves the frames
/// tile the region exactly.
class FrameWalker {
 public:
  static Result<FrameWalker> open(const std::string& path, std::uint64_t begin,
                                  std::uint64_t end) {
    FrameWalker walker;
    walker.fp_.reset(std::fopen(path.c_str(), "rb"));
    if (!walker.fp_) return not_found("split: cannot reopen '" + path + "'");
    if (std::fseek(walker.fp_.get(), static_cast<long>(begin), SEEK_SET) != 0) {
      return data_loss("split: seek failed in '" + path + "'");
    }
    walker.base_ = begin;
    walker.end_ = end;
    walker.buf_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(kRunBytes, end - begin)));
    return walker;
  }

  /// The next run of whole frames: about kRunBytes, or one frame if that is
  /// larger; empty once the walk reaches `end`. `starts` receives each
  /// frame's offset within the run. The run stays valid until the next call.
  Result<std::span<const std::uint8_t>> next_run(std::vector<std::size_t>& starts) {
    // Drop the previous run, keeping the partial frame buffered after it.
    if (consumed_ > 0) std::memmove(buf_.data(), buf_.data() + consumed_, len_ - consumed_);
    len_ -= consumed_;
    base_ += consumed_;
    consumed_ = 0;
    starts.clear();
    std::size_t pos = 0;
    while (true) {
      const auto want = static_cast<std::size_t>(
          std::min<std::uint64_t>(buf_.size() - len_, end_ - base_ - len_));
      if (want > 0) {
        if (std::fread(buf_.data() + len_, 1, want, fp_.get()) != want) {
          return data_loss("split: truncated source file");
        }
        len_ += want;
      }
      const bool at_end = base_ + len_ == end_;
      while (pos < len_) {
        std::uint64_t body = 0;
        std::size_t at = pos;
        int shift = 0;
        bool complete = false;
        while (at < len_ && !complete) {
          const std::uint8_t byte = buf_[at++];
          if (shift >= 64) return data_loss("dataset: corrupt record length");
          body |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
          complete = (byte & 0x80) == 0;
          shift += 7;
        }
        if (!complete && at_end) return data_loss(kNoTiling);
        if (!complete) break;
        if (body > ser::Reader::kMaxFieldLen) return data_loss("dataset: oversized record");
        const std::uint64_t frame = (at - pos) + body;
        if (frame > end_ - base_ - pos) return data_loss(kNoTiling);
        if (frame > len_ - pos) break;
        starts.push_back(pos);
        pos += static_cast<std::size_t>(frame);
      }
      if (!starts.empty() || (at_end && pos == len_)) break;
      // Not one whole frame is buffered: grow the buffer until the first fits.
      buf_.resize(2 * buf_.size());
    }
    consumed_ = pos;
    return std::span<const std::uint8_t>(buf_.data(), pos);
  }

  /// File offset of the run last returned by next_run().
  std::uint64_t run_offset() const { return base_; }

  static constexpr const char* kNoTiling = "split: record frames do not tile the data region";

 private:
  static constexpr std::uint64_t kRunBytes = 256 * 1024;

  FrameWalker() = default;

  struct Closer {
    void operator()(std::FILE* fp) const { std::fclose(fp); }
  };

  std::unique_ptr<std::FILE, Closer> fp_;
  std::uint64_t base_ = 0;  // file offset of buf_[0]
  std::uint64_t end_ = 0;
  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;       // valid bytes in buf_
  std::size_t consumed_ = 0;  // bytes of buf_ handed out by the last run
};

/// Part k starts at the first record whose cumulative framed bytes reach
/// k*total/N. The sparse index gives the cumulative bytes at every stride-th
/// record, so each boundary walks only the frames of the one index block it
/// falls in. bounds[0] and bounds[N] are the data region's ends.
Result<std::vector<Boundary>> place_boundaries(const std::string& path, const FrameIndex& index,
                                               std::uint64_t records, int num_parts) {
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
  std::vector<std::size_t> starts;
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
    IPA_ASSIGN_OR_RETURN(FrameWalker walker, FrameWalker::open(path, from.offset, to.offset));
    std::uint64_t record = from.record;
    bool placed = false;
    while (!placed) {
      IPA_ASSIGN_OR_RETURN(const auto run, walker.next_run(starts));
      if (run.empty()) return data_loss(FrameWalker::kNoTiling);
      for (std::size_t i = 0; i < starts.size() && !placed; ++i) {
        const std::uint64_t frame_end =
            walker.run_offset() + (i + 1 < starts.size() ? starts[i + 1] : run.size());
        ++record;
        if (record >= to.record && (record > to.record || frame_end != to.offset)) {
          return data_loss(FrameWalker::kNoTiling);
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
/// record's frame. Each task owns its file handles, so parts stream out
/// concurrently.
Result<PartInfo> write_part(const std::string& source_path, const DatasetInfo& info,
                            const FrameIndex& index, Boundary from, Boundary to, int k,
                            int num_parts, const std::string& out_prefix) {
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
  IPA_ASSIGN_OR_RETURN(FrameWalker walker,
                       FrameWalker::open(source_path, from.offset, to.offset));
  std::vector<std::size_t> starts;
  std::uint64_t record = from.record;
  while (true) {
    IPA_ASSIGN_OR_RETURN(const auto run, walker.next_run(starts));
    if (run.empty()) break;
    if (starts.size() > to.record - record) return data_loss(FrameWalker::kNoTiling);
    for (const std::size_t start : starts) {
      if (record % index.stride == 0 &&
          index.offsets[record / index.stride] != walker.run_offset() + start) {
        return data_loss("split: sparse index disagrees with the record frames");
      }
      ++record;
    }
    IPA_RETURN_IF_ERROR(writer.append_frames(run.data(), run.size(), starts));
  }
  if (record != to.record) return data_loss(FrameWalker::kNoTiling);
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

  const FrameIndex& index = reader.frame_index();
  IPA_ASSIGN_OR_RETURN(const std::vector<Boundary> bounds,
                       place_boundaries(source_path, index, reader.size(), num_parts));

  // One writer task per part on the shared site pool (the paper:
  // "transfers are done in parallel"). Results are collected in part order,
  // so the first failing part determines the error deterministically.
  const DatasetInfo& info = reader.info();
  std::vector<std::future<Result<PartInfo>>> parts;
  parts.reserve(static_cast<std::size_t>(num_parts));
  for (int k = 0; k < num_parts; ++k) {
    const Boundary from = bounds[static_cast<std::size_t>(k)];
    const Boundary to = bounds[static_cast<std::size_t>(k) + 1];
    parts.push_back(site_pool().submit([&source_path, &info, &index, from, to, k, num_parts,
                                           &out_prefix] {
      return write_part(source_path, info, index, from, to, k, num_parts, out_prefix);
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
