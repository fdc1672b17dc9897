// Fixture: must trip exactly [metric-inventory] — a registered family that
// metric_inventory_undocumented.md does not list.
#include "obs/metrics.hpp"

namespace fixture {

void register_counters() {
  ipa::obs::Registry::global().counter("ipa_fixture_listed_total", {}, "Listed.");
  ipa::obs::Registry::global().counter(
      "ipa_fixture_unlisted_total", {}, "Registered, not listed.");
}

}  // namespace fixture
