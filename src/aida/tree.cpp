#include "aida/tree.hpp"

#include <atomic>

#include "common/strings.hpp"

namespace ipa::aida {
namespace {

constexpr std::uint8_t kTagHistogram1D = 0;
constexpr std::uint8_t kTagHistogram2D = 1;
constexpr std::uint8_t kTagProfile1D = 2;
constexpr std::uint8_t kTagCloud1D = 3;
constexpr std::uint8_t kTagTuple = 4;

void encode_object(ser::Writer& w, const Object& object) {
  std::visit(
      [&w](const auto& obj) {
        using T = std::decay_t<decltype(obj)>;
        if constexpr (std::is_same_v<T, Histogram1D>) w.u8(kTagHistogram1D);
        else if constexpr (std::is_same_v<T, Histogram2D>) w.u8(kTagHistogram2D);
        else if constexpr (std::is_same_v<T, Profile1D>) w.u8(kTagProfile1D);
        else if constexpr (std::is_same_v<T, Cloud1D>) w.u8(kTagCloud1D);
        else w.u8(kTagTuple);
        obj.encode(w);
      },
      object);
}

Result<Object> decode_object(ser::Reader& r) {
  IPA_ASSIGN_OR_RETURN(const std::uint8_t tag, r.u8());
  switch (tag) {
    case kTagHistogram1D: {
      auto obj = Histogram1D::decode(r);
      IPA_RETURN_IF_ERROR(obj.status());
      return Object(std::move(*obj));
    }
    case kTagHistogram2D: {
      auto obj = Histogram2D::decode(r);
      IPA_RETURN_IF_ERROR(obj.status());
      return Object(std::move(*obj));
    }
    case kTagProfile1D: {
      auto obj = Profile1D::decode(r);
      IPA_RETURN_IF_ERROR(obj.status());
      return Object(std::move(*obj));
    }
    case kTagCloud1D: {
      auto obj = Cloud1D::decode(r);
      IPA_RETURN_IF_ERROR(obj.status());
      return Object(std::move(*obj));
    }
    case kTagTuple: {
      auto obj = Tuple::decode(r);
      IPA_RETURN_IF_ERROR(obj.status());
      return Object(std::move(*obj));
    }
    default:
      return data_loss("tree: unknown object tag " + std::to_string(tag));
  }
}

}  // namespace

std::string_view object_kind(const Object& object) {
  switch (object.index()) {
    case 0: return "Histogram1D";
    case 1: return "Histogram2D";
    case 2: return "Profile1D";
    case 3: return "Cloud1D";
    case 4: return "Tuple";
  }
  return "?";
}

Status merge_objects(Object& into, Object& from) {
  if (into.index() != from.index()) {
    return failed_precondition(std::string("tree: cannot merge ") +
                               std::string(object_kind(from)) + " into " +
                               std::string(object_kind(into)));
  }
  if (auto* h1 = std::get_if<Histogram1D>(&into)) return h1->merge(std::get<Histogram1D>(from));
  if (auto* h2 = std::get_if<Histogram2D>(&into)) return h2->merge(std::get<Histogram2D>(from));
  if (auto* p1 = std::get_if<Profile1D>(&into)) return p1->merge(std::get<Profile1D>(from));
  if (auto* c1 = std::get_if<Cloud1D>(&into)) return c1->merge(std::get<Cloud1D>(from));
  return std::get<Tuple>(into).merge(std::get<Tuple>(from));
}

std::string Tree::normalize(const std::string& path) {
  std::string out = "/";
  out += strings::join(strings::split_trimmed(path, '/'), "/");
  return out;
}

std::uint64_t Tree::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Tree& Tree::operator=(const Tree& other) {
  objects_ = other.objects_;
  bump();
  return *this;
}

Tree& Tree::operator=(Tree&& other) noexcept {
  objects_ = std::move(other.objects_);
  bump();
  other.bump();
  return *this;
}

void Tree::put(const std::string& path, Object object) {
  objects_[normalize(path)] = std::move(object);
  bump();
}

Result<Object*> Tree::find(const std::string& path) {
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return not_found("tree: no object at '" + path + "'");
  return &it->second;
}

Result<const Object*> Tree::find(const std::string& path) const {
  const auto it = objects_.find(normalize(path));
  if (it == objects_.end()) return not_found("tree: no object at '" + path + "'");
  return const_cast<const Object*>(&it->second);
}

namespace {

template <typename T>
Result<T*> typed_find(Tree& tree, const std::string& path) {
  auto object = tree.find(path);
  IPA_RETURN_IF_ERROR(object.status());
  T* typed = std::get_if<T>(*object);
  if (typed == nullptr) {
    return failed_precondition("tree: object at '" + path + "' is " +
                               std::string(object_kind(**object)));
  }
  return typed;
}

}  // namespace

Result<Histogram1D*> Tree::histogram1d(const std::string& path) {
  return typed_find<Histogram1D>(*this, path);
}
Result<Histogram2D*> Tree::histogram2d(const std::string& path) {
  return typed_find<Histogram2D>(*this, path);
}
Result<Profile1D*> Tree::profile1d(const std::string& path) {
  return typed_find<Profile1D>(*this, path);
}
Result<Cloud1D*> Tree::cloud1d(const std::string& path) {
  return typed_find<Cloud1D>(*this, path);
}
Result<Tuple*> Tree::tuple(const std::string& path) {
  return typed_find<Tuple>(*this, path);
}

bool Tree::remove(const std::string& path) {
  bump();
  return objects_.erase(normalize(path)) > 0;
}

std::vector<std::string> Tree::paths() const {
  std::vector<std::string> out;
  out.reserve(objects_.size());
  for (const auto& [path, _] : objects_) out.push_back(path);
  return out;
}

std::vector<std::string> Tree::list(const std::string& dir) const {
  std::string prefix = normalize(dir);
  if (prefix != "/") prefix += "/";
  std::vector<std::string> out;
  for (const auto& [path, _] : objects_) {
    if (strings::starts_with(path, prefix)) out.push_back(path);
  }
  return out;
}

Status Tree::merge(Tree& other) {
  bump();
  other.bump();  // its objects are moved out below, even when a merge fails
  for (auto& [path, object] : other.objects_) {
    const auto it = objects_.find(path);
    if (it == objects_.end()) {
      objects_.emplace(path, std::move(object));
    } else {
      IPA_RETURN_IF_ERROR(merge_objects(it->second, object).with_prefix(path));
    }
  }
  other.clear();
  return Status::ok();
}

ser::Bytes Tree::serialize() const {
  ser::Writer w;
  w.varint(objects_.size());
  for (const auto& [path, object] : objects_) {
    w.string(path);
    encode_object(w, object);
  }
  return std::move(w).take();
}

Result<Tree> Tree::deserialize(const ser::Bytes& bytes) {
  ser::Reader r(bytes);
  Tree tree;
  IPA_ASSIGN_OR_RETURN(const std::uint64_t count, r.varint());
  if (count > 1000000) return data_loss("tree: implausible object count");
  for (std::uint64_t i = 0; i < count; ++i) {
    IPA_ASSIGN_OR_RETURN(std::string path, r.string());
    auto object = decode_object(r);
    IPA_RETURN_IF_ERROR(object.status());
    tree.objects_.emplace(std::move(path), std::move(*object));
  }
  if (!r.at_end()) return data_loss("tree: trailing bytes in snapshot");
  return tree;
}

}  // namespace ipa::aida
