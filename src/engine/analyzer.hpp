// Analyzer contract and registry.
//
// An Analyzer consumes dataset records and fills an AIDA tree. Two
// implementations: registered C++ plugins (fast path, installed on workers
// ahead of time) and ScriptAnalyzer (PawScript shipped per session — the
// paper's interactive path).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aida/tree.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "data/record.hpp"
#include "data/record_batch.hpp"
#include "engine/code_bundle.hpp"
#include "script/interp.hpp"

namespace ipa::script {
class BatchEventObject;
}  // namespace ipa::script

namespace ipa::engine {

class Analyzer {
 public:
  virtual ~Analyzer() = default;

  /// Book objects; called once per (re)start of an analysis run.
  virtual Status begin(aida::Tree& tree) = 0;
  /// Called for every record.
  virtual Status process(const data::Record& record, aida::Tree& tree) = 0;
  /// Batched hot path: consume a columnar batch in row order. The default
  /// materializes each row and forwards to process(), so existing plugins
  /// keep working unmodified; fast analyzers override this to read columns
  /// by slot id. Must be observably equivalent to calling process() per row.
  virtual Status process_batch(const data::RecordBatch& batch, aida::Tree& tree);
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
  Status process(const data::Record& record, aida::Tree& tree) override;
  /// Fast path: one cursor object per batch resolves field names to schema
  /// slots once, then every process(event, tree) call reads columns by index.
  Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) override;
  Status end(aida::Tree& tree) override;

  /// print() output accumulated by the script.
  std::vector<std::string>& script_output() { return interp_.output(); }

 private:
  ScriptAnalyzer(script::Interp interp, script::Value process)
      : interp_(std::move(interp)), process_(std::move(process)) {}

  script::Interp interp_;
  script::Value process_;  // process(event, tree), resolved once
  // Cursor reused across process_batch calls: the engine feeds one batch
  // object for the whole run, so the cursor's name→slot cache stays warm.
  std::shared_ptr<script::BatchEventObject> cursor_;
  const data::RecordBatch* cursor_batch_ = nullptr;
};

/// Build an analyzer from a staged code bundle.
Result<std::unique_ptr<Analyzer>> make_analyzer(const CodeBundle& bundle,
                                                script::InterpOptions options = {});

}  // namespace ipa::engine
