#include "physics/event_gen.hpp"

#include <algorithm>
#include <span>

#include "engine/analyzer.hpp"

namespace ipa::physics {

data::Record generate_event(Rng& rng, const GeneratorConfig& config, std::uint64_t index) {
  std::vector<FourVector> parts;
  const bool signal = rng.bernoulli(config.signal_fraction);

  if (signal) {
    // Resonance with BW mass, exponential pT, gaussian z-boost; decays to
    // two massless daughters, isotropic in its rest frame.
    double m = rng.breit_wigner(config.resonance_mass, config.resonance_width);
    m = std::clamp(m, config.resonance_mass * 0.5, config.resonance_mass * 1.5);
    const double pt = rng.exponential(1.0 / config.resonance_pt_mean);
    const double pz = rng.normal(0.0, config.beam_energy_spread);
    const double phi_boson = rng.uniform(0, 2 * 3.14159265358979);
    FourVector boson;
    boson.px = pt * std::cos(phi_boson);
    boson.py = pt * std::sin(phi_boson);
    boson.pz = pz;
    boson.e = std::sqrt(m * m + boson.p2());

    const double cos_theta = rng.uniform(-1.0, 1.0);
    const double theta = std::acos(cos_theta);
    const double phi = rng.uniform(0, 2 * 3.14159265358979);
    const FourVector d1 = FourVector::from_polar(m / 2, theta, phi);
    FourVector d2{-d1.px, -d1.py, -d1.pz, d1.e};

    const double bx = boson.px / boson.e, by = boson.py / boson.e, bz = boson.pz / boson.e;
    parts.push_back(d1.boosted(bx, by, bz));
    parts.push_back(d2.boosted(bx, by, bz));
  }

  // Soft combinatoric background candidates.
  const int n_bg = 2 + static_cast<int>(rng.exponential(1.0 / config.background_particles_mean));
  for (int i = 0; i < n_bg; ++i) {
    const double p = rng.exponential(1.0 / config.background_pt_scale) + 0.5;
    const double theta = std::acos(rng.uniform(-1.0, 1.0));
    const double phi = rng.uniform(0, 2 * 3.14159265358979);
    parts.push_back(FourVector::from_polar(p, theta, phi));
  }

  data::Record record(index);
  record.set("sig", std::int64_t{signal ? 1 : 0});
  record.set("ntrk", static_cast<std::int64_t>(parts.size()));
  data::Value::RealVec px, py, pz, e;
  px.reserve(parts.size());
  for (const FourVector& part : parts) {
    px.push_back(part.px);
    py.push_back(part.py);
    pz.push_back(part.pz);
    e.push_back(part.e);
  }
  record.set("px", std::move(px));
  record.set("py", std::move(py));
  record.set("pz", std::move(pz));
  record.set("e", std::move(e));
  return record;
}

Result<data::DatasetInfo> generate_dataset(const std::string& path, const std::string& name,
                                           std::uint64_t events, const GeneratorConfig& config,
                                           std::uint64_t seed) {
  Rng rng(seed);
  auto writer = data::DatasetWriter::create(
      path, name,
      {{"experiment", "LC"},
       {"generator", "ipa-lcgen"},
       {"signal_fraction", std::to_string(config.signal_fraction)},
       {"resonance_mass", std::to_string(config.resonance_mass)}});
  IPA_RETURN_IF_ERROR(writer.status());
  for (std::uint64_t i = 0; i < events; ++i) {
    IPA_RETURN_IF_ERROR(writer->append(generate_event(rng, config, i)));
  }
  IPA_RETURN_IF_ERROR(writer->finish());
  auto reader = data::DatasetReader::open(path);
  IPA_RETURN_IF_ERROR(reader.status());
  return reader->info();
}

Result<std::vector<FourVector>> candidates(const data::Record& record) {
  const auto* px = record.vec_or_null("px");
  const auto* py = record.vec_or_null("py");
  const auto* pz = record.vec_or_null("pz");
  const auto* e = record.vec_or_null("e");
  if (px == nullptr || py == nullptr || pz == nullptr || e == nullptr) {
    return invalid_argument("event record missing candidate vectors");
  }
  const std::size_t n = px->size();
  if (py->size() != n || pz->size() != n || e->size() != n) {
    return data_loss("event record candidate vectors have mismatched lengths");
  }
  std::vector<FourVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(FourVector{(*px)[i], (*py)[i], (*pz)[i], (*e)[i]});
  }
  return out;
}

double leading_pair_mass(const data::Record& record) {
  auto parts = candidates(record);
  if (!parts.is_ok() || parts->size() < 2) return 0.0;
  std::partial_sort(parts->begin(), parts->begin() + 2, parts->end(),
                    [](const FourVector& a, const FourVector& b) { return a.pt() > b.pt(); });
  return pair_mass((*parts)[0], (*parts)[1]);
}

namespace {

constexpr double kPtCut = 20.0;  // GeV

/// Candidate with its transverse momentum computed once up front: the
/// partial_sort comparator otherwise recomputes two sqrts per comparison.
/// The cached value is the identical double pt() would return, so ordering,
/// cut decisions and the resulting histograms stay bit-identical.
struct PtCandidate {
  double pt;
  FourVector v;
};

/// Per-row selection: the two highest-pT candidates, both above the pT cut.
/// Returns the leading-pair mass, or 0.0 when the row fails selection
/// (the caller only fills for mass > 0). Kept out of line: inlined into
/// process_batch's row loop, its one caller, the GCC Release build ran the
/// plugin at half the events/s (BM_NativeAnalyzer, 4-core x86-64).
[[gnu::noinline]] double selected_pair_mass(std::span<const double> px,
                                            std::span<const double> py,
                                            std::span<const double> pz,
                                            std::span<const double> e,
                                            std::vector<PtCandidate>& scratch) {
  const std::size_t n = px.size();
  if (py.size() != n || pz.size() != n || e.size() != n) return 0.0;
  if (n < 2) return 0.0;
  scratch.clear();
  scratch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FourVector v{px[i], py[i], pz[i], e[i]};
    scratch.push_back(PtCandidate{v.pt(), v});
  }
  std::partial_sort(scratch.begin(), scratch.begin() + 2, scratch.end(),
                    [](const PtCandidate& a, const PtCandidate& b) { return a.pt > b.pt; });
  // Both legs must pass the pT cut; suppresses soft combinatorics.
  if (scratch[0].pt < kPtCut || scratch[1].pt < kPtCut) return 0.0;
  return pair_mass(scratch[0].v, scratch[1].v);
}

class HiggsMassAnalyzer final : public engine::Analyzer {
 public:
  Status begin(aida::Tree& tree) override {
    auto mass = aida::Histogram1D::create("leading pair mass [GeV]", 60, 0, 250);
    IPA_RETURN_IF_ERROR(mass.status());
    tree.put("/higgs/mass", std::move(*mass));
    auto ntrk = aida::Histogram1D::create("candidate multiplicity", 30, 0, 60);
    IPA_RETURN_IF_ERROR(ntrk.status());
    tree.put("/higgs/ntrk", std::move(*ntrk));
    return Status::ok();
  }

  Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) override {
    // Resolve slots and histogram paths once per batch, then run the inner
    // loop over typed columns. Fills accumulate per histogram in row order,
    // so each histogram sees the same fill sequence whatever the batch size.
    const data::Schema& schema = batch.schema();
    const int ntrk = schema.slot_of("ntrk");
    const int px = schema.slot_of("px");
    const int py = schema.slot_of("py");
    const int pz = schema.slot_of("pz");
    const int e = schema.slot_of("e");
    auto ntrk_hist = tree.histogram1d("/higgs/ntrk");
    IPA_RETURN_IF_ERROR(ntrk_hist.status());
    auto mass_hist = tree.histogram1d("/higgs/mass");
    IPA_RETURN_IF_ERROR(mass_hist.status());

    ntrk_fills_.clear();
    mass_fills_.clear();
    constexpr auto kVec = data::RecordBatch::CellKind::kVec;
    for (std::size_t row = 0; row < batch.rows(); ++row) {
      double multiplicity = 0.0;
      if (ntrk != data::Schema::kNoSlot) (void)batch.cell_number(ntrk, row, &multiplicity);
      ntrk_fills_.push_back(multiplicity);
      if (px == data::Schema::kNoSlot || py == data::Schema::kNoSlot ||
          pz == data::Schema::kNoSlot || e == data::Schema::kNoSlot) {
        continue;
      }
      if (batch.cell_kind(px, row) != kVec || batch.cell_kind(py, row) != kVec ||
          batch.cell_kind(pz, row) != kVec || batch.cell_kind(e, row) != kVec) {
        continue;
      }
      const double mass =
          selected_pair_mass(batch.cell_vec(px, row), batch.cell_vec(py, row),
                             batch.cell_vec(pz, row), batch.cell_vec(e, row), scratch_);
      if (mass > 0) mass_fills_.push_back(mass);
    }
    (*ntrk_hist)->fill_n(ntrk_fills_);
    (*mass_hist)->fill_n(mass_fills_);
    return Status::ok();
  }

 private:
  std::vector<PtCandidate> scratch_;
  std::vector<double> ntrk_fills_;
  std::vector<double> mass_fills_;
};

}  // namespace

void register_higgs_plugin() {
  static const bool registered = [] {
    (void)engine::AnalyzerRegistry::instance().register_factory(
        "higgs-mass", [] { return std::make_unique<HiggsMassAnalyzer>(); });
    return true;
  }();
  (void)registered;
}

const char* higgs_script() {
  // The PawScript twin of HiggsMassAnalyzer: reconstructs the invariant
  // mass of the two highest-pT candidates.
  return R"(
// Higgs-boson search: leading-pair invariant mass.
func begin(tree) {
  tree.book_h1("/higgs/mass", 60, 0, 250, "leading pair mass [GeV]");
  tree.book_h1("/higgs/ntrk", 30, 0, 60, "candidate multiplicity");
}

func pt2(px, py, i) {
  return px[i] * px[i] + py[i] * py[i];
}

func process(event, tree) {
  let px = event.get("px");
  let py = event.get("py");
  let pz = event.get("pz");
  let e  = event.get("e");
  let n = len(px);
  tree.fill("/higgs/ntrk", n);
  if (n < 2) { return 0; }

  // Find the two highest-pT candidates.
  let a = 0;
  let b = 1;
  if (pt2(px, py, 1) > pt2(px, py, 0)) { a = 1; b = 0; }
  for (let i = 2; i < n; i += 1) {
    if (pt2(px, py, i) > pt2(px, py, a)) { b = a; a = i; }
    else if (pt2(px, py, i) > pt2(px, py, b)) { b = i; }
  }

  // pT > 20 GeV on both legs suppresses the soft combinatoric background.
  if (pt2(px, py, a) < 400 || pt2(px, py, b) < 400) { return 0; }

  let se = e[a] + e[b];
  let sx = px[a] + px[b];
  let sy = py[a] + py[b];
  let sz = pz[a] + pz[b];
  let m2 = se * se - sx * sx - sy * sy - sz * sz;
  if (m2 > 0) { tree.fill("/higgs/mass", sqrt(m2)); }
  return 0;
}
)";
}

}  // namespace ipa::physics
