#include "engine/analyzer.hpp"

#include "script/engine_api.hpp"

namespace ipa::engine {

void CodeBundle::encode(ser::Writer& w) const {
  w.u8(kind == Kind::kScript ? 0 : 1);
  w.string(name);
  w.string(source);
}

Result<CodeBundle> CodeBundle::decode(ser::Reader& r) {
  CodeBundle bundle;
  IPA_ASSIGN_OR_RETURN(const std::uint8_t kind, r.u8());
  if (kind > 1) return data_loss("code bundle: bad kind byte");
  bundle.kind = kind == 0 ? Kind::kScript : Kind::kPlugin;
  IPA_ASSIGN_OR_RETURN(bundle.name, r.string());
  IPA_ASSIGN_OR_RETURN(bundle.source, r.string());
  return bundle;
}

AnalyzerRegistry& AnalyzerRegistry::instance() {
  static AnalyzerRegistry registry;
  return registry;
}

Status AnalyzerRegistry::register_factory(const std::string& name, AnalyzerFactory factory) {
  LockGuard lock(mutex_);
  if (factories_.count(name) != 0) {
    return already_exists("analyzer '" + name + "' already registered");
  }
  factories_.emplace(name, std::move(factory));
  return Status::ok();
}

Result<std::unique_ptr<Analyzer>> AnalyzerRegistry::create(const std::string& name) const {
  LockGuard lock(mutex_);
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    return not_found("analyzer '" + name + "' is not installed on this worker");
  }
  return it->second();
}

std::vector<std::string> AnalyzerRegistry::names() const {
  LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, _] : factories_) out.push_back(name);
  return out;
}

Result<std::unique_ptr<ScriptAnalyzer>> ScriptAnalyzer::compile(const std::string& source,
                                                                script::InterpOptions options) {
  script::Interp interp(options);
  IPA_RETURN_IF_ERROR(interp.load(source).with_prefix("analysis script"));
  script::Value process = interp.function("process");
  if (process.is_nil()) {
    return invalid_argument("analysis script must define process(event, tree)");
  }
  return std::unique_ptr<ScriptAnalyzer>(
      new ScriptAnalyzer(std::move(interp), std::move(process)));
}

Status ScriptAnalyzer::begin(aida::Tree& tree) {
  if (!interp_.has_function("begin")) return Status::ok();
  const auto result =
      interp_.call("begin", {script::Value(script::make_tree_object(&tree))});
  return result.status().with_prefix("begin()");
}

Status ScriptAnalyzer::process_batch(const data::RecordBatch& batch, aida::Tree& tree) {
  const auto cursor = std::make_shared<script::EventCursor>(&batch);
  const script::Value args[] = {script::Value(cursor),
                                script::Value(script::make_tree_object(&tree))};
  for (std::size_t row = 0; row < batch.rows(); ++row) {
    cursor->set_row(row);
    const auto result = interp_.invoke(process_, args);
    if (!result.is_ok()) return result.status().with_prefix("process()");
  }
  return Status::ok();
}

Status ScriptAnalyzer::end(aida::Tree& tree) {
  if (!interp_.has_function("end")) return Status::ok();
  const auto result = interp_.call("end", {script::Value(script::make_tree_object(&tree))});
  return result.status().with_prefix("end()");
}

Result<std::unique_ptr<Analyzer>> make_analyzer(const CodeBundle& bundle,
                                                script::InterpOptions options) {
  if (bundle.kind == CodeBundle::Kind::kScript) {
    auto analyzer = ScriptAnalyzer::compile(bundle.source, options);
    IPA_RETURN_IF_ERROR(analyzer.status());
    return std::unique_ptr<Analyzer>(std::move(*analyzer));
  }
  return AnalyzerRegistry::instance().create(bundle.source);
}

}  // namespace ipa::engine
