// The .ipd dataset file format: a self-describing, seekable, record-based
// container — IPA's stand-in for the LCIO-style files the paper stages with
// GridFTP.
//
// Layout:
//   header   magic "IPD1", u32 version, string name, string_map metadata
//   records  repeated [varint length][Record bytes]
//   footer   varint count, varint index stride,
//            vector<u64> offsets (file offset of every stride-th record),
//            u32 crc32 over all record bytes
//   trailer  u64 footer offset, u32 magic "IPDF" (fixed 12 bytes)
//
// The sparse offset index is validated on open (ceil(count/stride) entries,
// the first at the first record frame, strictly increasing, all before the
// footer). Seeks and the splitter's part boundaries start from it, so they
// walk at most one stride of frame headers instead of the whole file.
//
// Every walk over the record frames — sequential and batched reads, seeks,
// the integrity scan and the splitter's part copies — goes through one
// FrameCursor, the only code that parses a frame header.
#pragma once

#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "common/status.hpp"
#include "data/record.hpp"
#include "data/record_batch.hpp"

namespace ipa::data {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint64_t kDefaultIndexStride = 256;

/// Dataset-level description (name + free-form metadata).
struct DatasetInfo {
  std::string name;
  std::map<std::string, std::string> metadata;
  std::uint64_t record_count = 0;
  std::uint64_t file_bytes = 0;
};

/// Streaming writer; records must be appended in order.
class DatasetWriter {
 public:
  static Result<DatasetWriter> create(const std::string& path, const std::string& name,
                                      std::map<std::string, std::string> metadata = {},
                                      std::uint64_t index_stride = kDefaultIndexStride);

  DatasetWriter(DatasetWriter&&) noexcept;
  DatasetWriter& operator=(DatasetWriter&&) noexcept;
  ~DatasetWriter();

  Status append(const Record& record);

  /// Append a contiguous run of already-framed records: `frames[0, size)`
  /// holds back-to-back frames in the exact on-disk form
  /// `[varint length][Record bytes]`, and `frame_starts[i]` is the offset of
  /// frame i within the run. The run costs one CRC update and one write;
  /// index offsets come from the frame starts. append() goes through here,
  /// so copying frames between files reproduces append()'s output byte for
  /// byte without decoding. The caller vouches for the framing (the
  /// splitter walks and checks every frame header it copies).
  Status append_frames(const std::uint8_t* frames, std::size_t size,
                       std::span<const std::size_t> frame_starts);

  /// Write footer+trailer and close the file. Must be called; the
  /// destructor closes without finalizing (leaving an unreadable file) and
  /// logs a warning.
  Status finish();

 private:
  DatasetWriter() = default;

  struct State;
  std::unique_ptr<State> state_;
  std::uint64_t count_ = 0;
};

/// Bounded forward reader over the record frames in [begin, end) of an open
/// .ipd file. It pread(2)s at explicit offsets into one buffer that it keeps
/// across calls, so no byte is read twice and no file position needs
/// rewinding. It checks each frame header as it crosses it: a malformed or
/// oversized length, or a frame that runs past `end`, is data loss. That end
/// check comes before the buffer grows, so a corrupt length never allocates
/// more than the region. A walk that reaches `end` proves that the frames
/// tile the region exactly.
class FrameCursor {
 public:
  /// Whole frames, back to back in their on-disk form. Valid until the
  /// cursor's next call.
  struct Run {
    std::uint64_t offset = 0;             // file offset of bytes[0]
    std::span<const std::uint8_t> bytes;
    std::span<const std::size_t> starts;  // frame i begins at bytes[starts[i]]
    std::span<const std::size_t> bodies;  // and its Record bytes at bytes[bodies[i]]

    std::size_t frames() const { return starts.size(); }
    /// Offset in `bytes` one past frame i.
    std::size_t end(std::size_t i) const {
      return i + 1 < starts.size() ? starts[i + 1] : bytes.size();
    }
    ser::Reader body(std::size_t i) const {
      return ser::Reader(bytes.data() + bodies[i], end(i) - bodies[i]);
    }
  };

  static constexpr const char* kNoTiling = "dataset: record frames do not tile the data region";

  /// A cursor over [begin, end) of `fd`, which must outlive it.
  FrameCursor(int fd, std::uint64_t begin, std::uint64_t end);

  /// Restart the walk at `begin`, over [begin, end).
  void reset(std::uint64_t begin, std::uint64_t end);

  /// The next run of at most `max_frames` whole frames: every whole frame
  /// already buffered, or else the next frame, read in full. Empty once the
  /// walk reaches `end`. A bad header after a good frame ends the run, and
  /// the next call reports it.
  Result<Run> next(std::uint64_t max_frames = std::numeric_limits<std::uint64_t>::max());

 private:
  struct Header {
    std::size_t head = 0;  // varint bytes; 0 while the buffer ends inside them
    std::uint64_t body = 0;
  };
  Result<Header> header(std::size_t at) const;
  Status fill(std::size_t need);

  int fd_;
  std::uint64_t base_;  // file offset of buf_[0]
  std::uint64_t end_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // next frame in buf_
  std::size_t len_ = 0;  // valid bytes in buf_
  std::vector<std::size_t> starts_;
  std::vector<std::size_t> bodies_;
};

/// Random-access reader.
class DatasetReader {
 public:
  static Result<DatasetReader> open(const std::string& path);

  DatasetReader(DatasetReader&&) noexcept;
  DatasetReader& operator=(DatasetReader&&) noexcept;
  ~DatasetReader();

  const DatasetInfo& info() const;
  std::uint64_t size() const;  // record count

  /// Read record `i` (0-based). Seeks via the sparse index.
  Result<Record> read(std::uint64_t i);

  /// Sequential read of the next record from the current position;
  /// kOutOfRange at end.
  Result<Record> next();

  /// Batched sequential read: decode up to `max_records` from the current
  /// position straight into `batch`'s columns (appending — callers clear()
  /// between batches). Returns the number of records appended; 0 at end of
  /// dataset. This is the analysis hot path: no per-record Record/Value
  /// materialization.
  Result<std::uint64_t> read_batch(RecordBatch& batch, std::uint64_t max_records);

  /// Field schema interned so far by this reader (grows as records with new
  /// fields are decoded); shared by every batch made via make_batch().
  const SchemaPtr& schema() const;

  /// An empty batch bound to this reader's cached schema, so slot ids stay
  /// stable across all batches of the dataset (analyzers cache name→slot
  /// resolutions once per run).
  RecordBatch make_batch() const;
  std::uint64_t position() const;
  Status seek(std::uint64_t record_index);

  /// The footer's sparse frame index, validated by open(): `offsets[s]` is
  /// the file offset of record s*stride's frame, and the record frames
  /// occupy [data_begin, data_end) (data_end is the footer offset).
  struct FrameIndex {
    std::uint64_t stride = kDefaultIndexStride;
    std::vector<std::uint64_t> offsets;
    std::uint64_t data_begin = 0;
    std::uint64_t data_end = 0;
  };
  const FrameIndex& frame_index() const;

  /// A cursor over [begin, end) of this reader's file, beside the reader's
  /// own (the splitter's part tasks walk their ranges concurrently). It
  /// shares the reader's file handle, so it must not outlive the reader.
  FrameCursor frames(std::uint64_t begin, std::uint64_t end) const;

  /// Verify that exactly size() frames tile the record region and that the
  /// stored CRC matches their bytes.
  Status verify_integrity();

 private:
  DatasetReader() = default;

  /// Decode the next `count` frames through `decode`, advancing position().
  template <typename Decode>
  Status decode_frames(std::uint64_t count, Decode&& decode);

  struct State;
  std::unique_ptr<State> state_;
};

/// Convenience: write a whole vector of records as a dataset file.
Status write_dataset(const std::string& path, const std::string& name,
                     const std::vector<Record>& records,
                     std::map<std::string, std::string> metadata = {});

/// Convenience: read every record of a dataset file.
Result<std::vector<Record>> read_all(const std::string& path);

}  // namespace ipa::data
