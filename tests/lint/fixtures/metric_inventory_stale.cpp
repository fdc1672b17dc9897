// Fixture: must trip exactly [metric-inventory] — metric_inventory_stale.md
// lists a family that nothing registers.
#include "obs/metrics.hpp"

namespace fixture {

void register_counter() {
  ipa::obs::Registry::global().counter("ipa_fixture_listed_total", {}, "Listed.");
}

}  // namespace fixture
