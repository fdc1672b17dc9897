// Hierarchical analysis-object store (AIDA ITree analogue).
//
// Analysis code books objects at paths ("/higgs/mass", "/qc/nTracks");
// engines snapshot whole trees to the AIDA manager, which merges them into
// the session-global tree the client polls. The tree is the unit of
// transfer between engine → manager → client.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "aida/cloud1d.hpp"
#include "aida/histogram1d.hpp"
#include "aida/histogram2d.hpp"
#include "aida/profile1d.hpp"
#include "aida/tuple.hpp"

namespace ipa::aida {

/// Any bookable analysis object.
using Object = std::variant<Histogram1D, Histogram2D, Profile1D, Cloud1D, Tuple>;

/// Display/type name of an object variant ("Histogram1D", ...).
std::string_view object_kind(const Object& object);
/// Merge two objects of the same alternative; kFailedPrecondition on kind
/// or shape mismatch.
Status merge_objects(Object& into, Object& from);

class Tree {
 public:
  Tree() = default;
  Tree(const Tree& other) : objects_(other.objects_) {}
  Tree(Tree&& other) noexcept : objects_(std::move(other.objects_)) { other.bump(); }
  Tree& operator=(const Tree& other);
  Tree& operator=(Tree&& other) noexcept;

  /// Store an object at `path` ("/dir/name"; leading '/' optional).
  /// Overwrites an existing object at the same path.
  void put(const std::string& path, Object object);

  /// Object lookup; kNotFound when absent.
  Result<Object*> find(const std::string& path);
  Result<const Object*> find(const std::string& path) const;

  /// Typed accessors (kNotFound / kFailedPrecondition on kind mismatch).
  Result<Histogram1D*> histogram1d(const std::string& path);
  Result<Histogram2D*> histogram2d(const std::string& path);
  Result<Profile1D*> profile1d(const std::string& path);
  Result<Cloud1D*> cloud1d(const std::string& path);
  Result<Tuple*> tuple(const std::string& path);

  bool remove(const std::string& path);
  void clear() {
    objects_.clear();
    bump();
  }

  /// Changes whenever an object may have been added, replaced or removed
  /// (put, remove, clear, merge, assignment), so a cached Object* is valid
  /// while the generation it was found in holds. Every tree draws its
  /// generations from one process-wide counter: two trees never share one.
  std::uint64_t generation() const { return generation_; }

  /// All object paths, sorted.
  std::vector<std::string> paths() const;
  /// Paths directly under a directory prefix.
  std::vector<std::string> list(const std::string& dir) const;

  std::size_t size() const { return objects_.size(); }
  bool empty() const { return objects_.empty(); }

  /// Merge `other` into this tree: objects at matching paths merge; objects
  /// only in `other` are copied. `other` is left in an unspecified state
  /// (clouds may be converted by the merge).
  Status merge(Tree& other);

  /// Snapshot serialization (the engine→manager payload).
  ser::Bytes serialize() const;
  static Result<Tree> deserialize(const ser::Bytes& bytes);

 private:
  static std::string normalize(const std::string& path);
  static std::uint64_t next_generation();
  void bump() { generation_ = next_generation(); }

  std::map<std::string, Object> objects_;
  std::uint64_t generation_ = next_generation();
};

}  // namespace ipa::aida
