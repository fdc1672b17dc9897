#include "data/dataset.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "data/crc32.hpp"

namespace ipa::data {
namespace {

constexpr char kMagic[4] = {'I', 'P', 'D', '1'};
constexpr std::uint32_t kTrailerMagic = 0x46445049;  // "IPDF" little-endian

/// RAII stdio FILE handle (stdio gives us portable 64-bit seeks + buffering).
struct File {
  std::FILE* fp = nullptr;
  ~File() {
    if (fp) std::fclose(fp);
  }
  void close() {
    if (fp) {
      std::fclose(fp);
      fp = nullptr;
    }
  }
};

Status write_bytes(std::FILE* fp, const void* data, std::size_t len) {
  if (len && std::fwrite(data, 1, len, fp) != len) {
    return unavailable("dataset: write failed");
  }
  return Status::ok();
}

Status read_bytes(std::FILE* fp, void* data, std::size_t len) {
  if (len && std::fread(data, 1, len, fp) != len) {
    return data_loss("dataset: truncated file");
  }
  return Status::ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct DatasetWriter::State {
  File file;
  std::string path;
  std::uint64_t index_stride = kDefaultIndexStride;
  std::vector<std::uint64_t> index_offsets;
  std::uint64_t position = 0;  // file offset of the next byte written
  Crc32 crc;
  bool finished = false;
};

Result<DatasetWriter> DatasetWriter::create(const std::string& path, const std::string& name,
                                            std::map<std::string, std::string> metadata,
                                            std::uint64_t index_stride) {
  if (index_stride == 0) return invalid_argument("dataset: index stride must be > 0");
  DatasetWriter writer;
  writer.state_ = std::make_unique<State>();
  writer.state_->path = path;
  writer.state_->index_stride = index_stride;
  writer.state_->file.fp = std::fopen(path.c_str(), "wb");
  if (writer.state_->file.fp == nullptr) {
    return unavailable("dataset: cannot create '" + path + "'");
  }

  ser::Writer header;
  header.raw(kMagic, 4);
  header.u32(kFormatVersion);
  header.string(name);
  header.string_map(metadata);
  IPA_RETURN_IF_ERROR(
      write_bytes(writer.state_->file.fp, header.data().data(), header.size()));
  writer.state_->position = header.size();
  return writer;
}

DatasetWriter::DatasetWriter(DatasetWriter&&) noexcept = default;
DatasetWriter& DatasetWriter::operator=(DatasetWriter&&) noexcept = default;

DatasetWriter::~DatasetWriter() {
  if (state_ && !state_->finished && state_->file.fp != nullptr) {
    IPA_LOG(warn) << "DatasetWriter for " << state_->path
                  << " destroyed without finish(); file left unreadable";
  }
}

Status DatasetWriter::append(const Record& record) {
  ser::Writer body;
  record.encode(body);
  ser::Writer framed;
  framed.varint(body.size());
  framed.raw(body.data().data(), body.size());
  constexpr std::size_t kStart = 0;
  return append_frames(framed.data().data(), framed.size(), {&kStart, 1});
}

Status DatasetWriter::append_frames(const std::uint8_t* frames, std::size_t size,
                                    std::span<const std::size_t> frame_starts) {
  if (!state_ || state_->finished) return failed_precondition("dataset: writer finished");
  if (frame_starts.empty() != (size == 0)) {
    return invalid_argument("dataset: frame run and frame starts disagree");
  }
  State& st = *state_;
  std::uint64_t count = count_;
  for (const std::size_t start : frame_starts) {
    if (count % st.index_stride == 0) st.index_offsets.push_back(st.position + start);
    ++count;
  }
  st.crc.update(frames, size);
  IPA_RETURN_IF_ERROR(write_bytes(st.file.fp, frames, size));
  st.position += size;
  count_ = count;
  return Status::ok();
}

Status DatasetWriter::finish() {
  if (!state_) return failed_precondition("dataset: writer moved-from");
  if (state_->finished) return Status::ok();

  const std::uint64_t footer_pos = state_->position;

  ser::Writer footer;
  footer.varint(count_);
  footer.varint(state_->index_stride);
  footer.vector(state_->index_offsets, [](ser::Writer& w, std::uint64_t off) { w.u64(off); });
  footer.u32(state_->crc.value());
  IPA_RETURN_IF_ERROR(write_bytes(state_->file.fp, footer.data().data(), footer.size()));

  ser::Writer trailer;
  trailer.u64(footer_pos);
  trailer.u32(kTrailerMagic);
  IPA_RETURN_IF_ERROR(write_bytes(state_->file.fp, trailer.data().data(), trailer.size()));

  state_->file.close();
  state_->finished = true;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Frame cursor
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint64_t kRunBytes = 256 * 1024;  // buffer size unless one frame needs more
}  // namespace

FrameCursor::FrameCursor(int fd, std::uint64_t begin, std::uint64_t end)
    : fd_(fd), base_(begin), end_(end) {}

void FrameCursor::reset(std::uint64_t begin, std::uint64_t end) {
  base_ = begin;
  end_ = end;
  pos_ = 0;
  len_ = 0;
}

Result<FrameCursor::Header> FrameCursor::header(std::size_t at) const {
  std::uint64_t body = 0;
  int shift = 0;
  for (std::size_t i = at; i < len_; shift += 7) {
    if (shift >= 64) return data_loss("dataset: corrupt record length");
    const std::uint8_t byte = buf_[i++];
    body |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      const std::size_t head = i - at;
      if (body > ser::Reader::kMaxFieldLen) return data_loss("dataset: oversized record");
      if (head + body > end_ - base_ - at) return data_loss(kNoTiling);
      return Header{head, body};
    }
  }
  if (base_ + len_ == end_) return data_loss(kNoTiling);
  return Header{};
}

Status FrameCursor::fill(std::size_t need) {
  // Drop the bytes before pos_, keeping the partial frame at pos_.
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    base_ += pos_;
    len_ -= pos_;
    pos_ = 0;
  }
  const std::uint64_t region = end_ - base_;
  const auto size = static_cast<std::size_t>(std::min(region, kRunBytes));
  if (buf_.size() < std::max(need, size)) buf_.resize(std::max(need, size));
  while (len_ < need) {
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(buf_.size() - len_, region - len_));
    const ssize_t got =
        ::pread(fd_, buf_.data() + len_, want, static_cast<off_t>(base_ + len_));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return unavailable("dataset: read failed");
    if (got == 0) return data_loss("dataset: truncated file");
    len_ += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

Result<FrameCursor::Run> FrameCursor::next(std::uint64_t max_frames) {
  starts_.clear();
  bodies_.clear();
  std::size_t first = pos_;
  while (starts_.size() < max_frames && base_ + pos_ < end_) {
    const Result<Header> frame = header(pos_);
    if (!frame.is_ok() || frame->head == 0 || frame->head + frame->body > len_ - pos_) {
      if (!starts_.empty()) break;  // hand out the whole frames first
      IPA_RETURN_IF_ERROR(frame.status());
      IPA_RETURN_IF_ERROR(fill(frame->head == 0
                                   ? len_ - pos_ + 1
                                   : frame->head + static_cast<std::size_t>(frame->body)));
      first = pos_;
      continue;
    }
    starts_.push_back(pos_ - first);
    bodies_.push_back(pos_ - first + frame->head);
    pos_ += frame->head + static_cast<std::size_t>(frame->body);
  }
  return Run{base_ + first, {buf_.data() + first, pos_ - first}, starts_, bodies_};
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct DatasetReader::State {
  File file;
  std::string path;
  DatasetInfo info;
  FrameIndex index;
  std::uint32_t stored_crc = 0;
  std::uint64_t position = 0;     // next record to be returned by next()
  SchemaPtr schema = std::make_shared<Schema>();  // interned as records decode
  FrameCursor frames{-1, 0, 0};   // at position's frame
};

Result<DatasetReader> DatasetReader::open(const std::string& path) {
  DatasetReader reader;
  reader.state_ = std::make_unique<State>();
  State& st = *reader.state_;
  st.path = path;
  st.file.fp = std::fopen(path.c_str(), "rb");
  if (st.file.fp == nullptr) return not_found("dataset: cannot open '" + path + "'");
  st.frames = FrameCursor(::fileno(st.file.fp), 0, 0);

  // Header.
  char magic[4];
  IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) return data_loss("dataset: bad magic in " + path);
  {
    std::uint8_t ver_bytes[4];
    IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, ver_bytes, 4));
    ser::Reader vr(ver_bytes, 4);
    IPA_ASSIGN_OR_RETURN(const std::uint32_t version, vr.u32());
    if (version != kFormatVersion) {
      return data_loss("dataset: unsupported version " + std::to_string(version));
    }
  }
  // Name + metadata are varint-framed strings, read field by field.
  const auto read_varint = [&]() -> Result<std::uint64_t> {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      std::uint8_t byte = 0;
      IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, &byte, 1));
      if (shift >= 64) return data_loss("dataset: corrupt varint");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  };
  const auto read_string = [&]() -> Result<std::string> {
    IPA_ASSIGN_OR_RETURN(const std::uint64_t len, read_varint());
    if (len > ser::Reader::kMaxFieldLen) return data_loss("dataset: oversized string");
    std::string out(static_cast<std::size_t>(len), '\0');
    IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, out.data(), out.size()));
    return out;
  };

  IPA_ASSIGN_OR_RETURN(st.info.name, read_string());
  IPA_ASSIGN_OR_RETURN(const std::uint64_t meta_count, read_varint());
  if (meta_count > 100000) return data_loss("dataset: implausible metadata count");
  for (std::uint64_t i = 0; i < meta_count; ++i) {
    IPA_ASSIGN_OR_RETURN(std::string key, read_string());
    IPA_ASSIGN_OR_RETURN(std::string value, read_string());
    st.info.metadata.emplace(std::move(key), std::move(value));
  }
  {
    const long pos = std::ftell(st.file.fp);
    if (pos < 0) return unavailable("dataset: ftell failed");
    st.index.data_begin = static_cast<std::uint64_t>(pos);
  }

  // Trailer.
  if (std::fseek(st.file.fp, -12, SEEK_END) != 0) return data_loss("dataset: no trailer");
  {
    std::uint8_t trailer[12];
    IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, trailer, 12));
    ser::Reader tr(trailer, 12);
    IPA_ASSIGN_OR_RETURN(st.index.data_end, tr.u64());
    IPA_ASSIGN_OR_RETURN(const std::uint32_t magic2, tr.u32());
    if (magic2 != kTrailerMagic) return data_loss("dataset: bad trailer magic (unfinished file?)");
  }
  {
    const long end = std::ftell(st.file.fp);
    st.info.file_bytes = end < 0 ? 0 : static_cast<std::uint64_t>(end);
  }
  const std::uint64_t trailer_begin = st.info.file_bytes - 12;
  if (st.index.data_end < st.index.data_begin || st.index.data_end > trailer_begin) {
    return data_loss("dataset: bad footer offset");
  }

  // Footer.
  if (std::fseek(st.file.fp, static_cast<long>(st.index.data_end), SEEK_SET) != 0) {
    return data_loss("dataset: bad footer offset");
  }
  IPA_ASSIGN_OR_RETURN(st.info.record_count, read_varint());
  IPA_ASSIGN_OR_RETURN(st.index.stride, read_varint());
  if (st.index.stride == 0) return data_loss("dataset: zero index stride");
  IPA_ASSIGN_OR_RETURN(const std::uint64_t index_count, read_varint());
  // One entry per stride-th record: ceil(count / stride).
  const std::uint64_t n = st.info.record_count;
  if (index_count != (n == 0 ? 0 : (n - 1) / st.index.stride + 1)) {
    return data_loss("dataset: index size does not match the record count");
  }
  {
    // Every entry is 8 bytes, so the footer bounds the reserve.
    const long pos = std::ftell(st.file.fp);
    if (pos < 0 || static_cast<std::uint64_t>(pos) > trailer_begin ||
        index_count > (trailer_begin - static_cast<std::uint64_t>(pos)) / 8) {
      return data_loss("dataset: index overruns the footer");
    }
  }
  st.index.offsets.reserve(static_cast<std::size_t>(index_count));
  for (std::uint64_t i = 0; i < index_count; ++i) {
    std::uint8_t off_bytes[8];
    IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, off_bytes, 8));
    ser::Reader orr(off_bytes, 8);
    IPA_ASSIGN_OR_RETURN(const std::uint64_t off, orr.u64());
    // The first entry is the first frame; each later one lies strictly
    // after its predecessor. All lie before the footer.
    const bool valid =
        (i == 0 ? off == st.index.data_begin : off > st.index.offsets.back()) &&
        off < st.index.data_end;
    if (!valid) return data_loss("dataset: corrupt index entry " + std::to_string(i));
    st.index.offsets.push_back(off);
  }
  {
    std::uint8_t crc_bytes[4];
    IPA_RETURN_IF_ERROR(read_bytes(st.file.fp, crc_bytes, 4));
    ser::Reader cr(crc_bytes, 4);
    IPA_ASSIGN_OR_RETURN(st.stored_crc, cr.u32());
  }

  IPA_RETURN_IF_ERROR(reader.seek(0));
  return reader;
}

DatasetReader::DatasetReader(DatasetReader&&) noexcept = default;
DatasetReader& DatasetReader::operator=(DatasetReader&&) noexcept = default;
DatasetReader::~DatasetReader() = default;

const DatasetInfo& DatasetReader::info() const { return state_->info; }
std::uint64_t DatasetReader::size() const { return state_->info.record_count; }
std::uint64_t DatasetReader::position() const { return state_->position; }

Status DatasetReader::seek(std::uint64_t record_index) {
  State& st = *state_;
  if (record_index > st.info.record_count) {
    return out_of_range("dataset: seek past end");
  }
  if (record_index == st.info.record_count) {
    st.position = record_index;  // at-end position; next() reports kOutOfRange
    return Status::ok();
  }
  // Start at the index entry, then skip forward by frame headers alone.
  const std::uint64_t slot = record_index / st.index.stride;
  st.frames.reset(st.index.offsets[slot], st.index.data_end);
  st.position = slot * st.index.stride;
  while (st.position < record_index) {
    IPA_ASSIGN_OR_RETURN(const FrameCursor::Run run, st.frames.next(record_index - st.position));
    if (run.frames() == 0) return data_loss(FrameCursor::kNoTiling);
    st.position += run.frames();
  }
  return Status::ok();
}

template <typename Decode>
Status DatasetReader::decode_frames(std::uint64_t count, Decode&& decode) {
  State& st = *state_;
  const auto walk = [&]() -> Status {
    for (const std::uint64_t end = st.position + count; st.position < end;) {
      IPA_ASSIGN_OR_RETURN(const FrameCursor::Run run, st.frames.next(end - st.position));
      if (run.frames() == 0) return data_loss(FrameCursor::kNoTiling);
      for (std::size_t i = 0; i < run.frames(); ++i) {
        ser::Reader r = run.body(i);
        IPA_RETURN_IF_ERROR(decode(r));
        if (!r.at_end()) return data_loss("dataset: trailing bytes in record frame");
        ++st.position;
      }
    }
    return Status::ok();
  };
  const Status status = walk();
  if (!status.is_ok()) (void)seek(st.position);  // the cursor may be past the bad frame
  return status;
}

Result<Record> DatasetReader::next() {
  if (state_->position >= state_->info.record_count) {
    return out_of_range("dataset: end of records");
  }
  Result<Record> record = Record();
  IPA_RETURN_IF_ERROR(decode_frames(1, [&](ser::Reader& r) {
    record = Record::decode(r);
    return record.status();
  }));
  return record;
}

Result<Record> DatasetReader::read(std::uint64_t i) {
  IPA_RETURN_IF_ERROR(seek(i));
  return next();
}

Result<std::uint64_t> DatasetReader::read_batch(RecordBatch& batch,
                                                std::uint64_t max_records) {
  const std::uint64_t from = state_->position;
  IPA_RETURN_IF_ERROR(decode_frames(std::min(max_records, state_->info.record_count - from),
                                    [&](ser::Reader& r) { return batch.append_encoded(r); }));
  return state_->position - from;
}

const DatasetReader::FrameIndex& DatasetReader::frame_index() const { return state_->index; }

FrameCursor DatasetReader::frames(std::uint64_t begin, std::uint64_t end) const {
  return FrameCursor(::fileno(state_->file.fp), begin, end);
}

const SchemaPtr& DatasetReader::schema() const { return state_->schema; }

RecordBatch DatasetReader::make_batch() const { return RecordBatch(state_->schema); }

Status DatasetReader::verify_integrity() {
  FrameCursor scan = frames(state_->index.data_begin, state_->index.data_end);
  Crc32 crc;
  std::uint64_t count = 0;
  while (true) {
    IPA_ASSIGN_OR_RETURN(const FrameCursor::Run run, scan.next());
    if (run.frames() == 0) break;
    crc.update(run.bytes.data(), run.bytes.size());
    count += run.frames();
  }
  if (count != state_->info.record_count) return data_loss(FrameCursor::kNoTiling);
  if (crc.value() != state_->stored_crc) {
    return data_loss("dataset: CRC mismatch (file corrupted)");
  }
  return Status::ok();
}

Status write_dataset(const std::string& path, const std::string& name,
                     const std::vector<Record>& records,
                     std::map<std::string, std::string> metadata) {
  auto writer = DatasetWriter::create(path, name, std::move(metadata));
  IPA_RETURN_IF_ERROR(writer.status());
  for (const Record& record : records) {
    IPA_RETURN_IF_ERROR(writer->append(record));
  }
  return writer->finish();
}

Result<std::vector<Record>> read_all(const std::string& path) {
  auto reader = DatasetReader::open(path);
  IPA_RETURN_IF_ERROR(reader.status());
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(reader->size()));
  for (std::uint64_t i = 0; i < reader->size(); ++i) {
    auto record = reader->next();
    IPA_RETURN_IF_ERROR(record.status());
    records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace ipa::data
