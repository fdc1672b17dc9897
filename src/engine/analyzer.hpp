// Analyzer contract and registry.
//
// An Analyzer consumes columnar record batches, the unit the engine reads
// from a staged part, and fills an AIDA tree. Two implementations:
// registered C++ plugins (fast path, installed on workers ahead of time)
// and ScriptAnalyzer (PawScript shipped per session — the paper's
// interactive path).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aida/tree.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "data/record_batch.hpp"
#include "engine/code_bundle.hpp"
#include "script/interp.hpp"

namespace ipa::engine {

class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Book objects; called once per (re)start of an analysis run.
  virtual Status begin(aida::Tree& tree) = 0;
  /// Consume one batch in row order, reading columns by schema slot id.
  /// The result must not depend on how the rows were cut into batches.
  virtual Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) = 0;
  /// Called when the dataset is exhausted (not on stop/pause).
  virtual Status end(aida::Tree& tree) { (void)tree; return Status::ok(); }
};

using AnalyzerFactory = std::function<std::unique_ptr<Analyzer>()>;

/// Process-wide registry of natively installed analyzers (the "data format
/// readers / analysis classes" pre-installed on the paper's worker nodes).
class AnalyzerRegistry {
 public:
  static AnalyzerRegistry& instance();

  Status register_factory(const std::string& name, AnalyzerFactory factory);
  Result<std::unique_ptr<Analyzer>> create(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  mutable Mutex mutex_{LockRank::kRegistry, "analyzer-registry"};
  std::map<std::string, AnalyzerFactory> factories_ IPA_GUARDED_BY(mutex_);
};

/// PawScript-backed analyzer. The script must define
/// process(event, tree); begin(tree) and end(tree) are optional.
class ScriptAnalyzer final : public Analyzer {
 public:
  static Result<std::unique_ptr<ScriptAnalyzer>> compile(
      const std::string& source, script::InterpOptions options = {});

  Status begin(aida::Tree& tree) override;
  /// Calls the script's process(event, tree) once per row, with one event
  /// cursor stepped down the batch.
  Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) override;
  Status end(aida::Tree& tree) override;

  /// print() output accumulated by the script.
  std::vector<std::string>& script_output() { return interp_.output(); }

 private:
  ScriptAnalyzer(script::Interp interp, script::Value process)
      : interp_(std::move(interp)), process_(std::move(process)) {}

  script::Interp interp_;
  script::Value process_;  // process(event, tree), resolved once
};

/// Build an analyzer from a staged code bundle.
Result<std::unique_ptr<Analyzer>> make_analyzer(const CodeBundle& bundle,
                                                script::InterpOptions options = {});

}  // namespace ipa::engine
