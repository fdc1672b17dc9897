// Fixture: must trip exactly [metric-inventory] — metric_inventory_kind.md
// lists a registered gauge as a counter.
#include "obs/metrics.hpp"

namespace fixture {

void register_gauge() {
  ipa::obs::Registry::global().gauge("ipa_fixture_depth", {}, "Queue depth.").set(1);
}

}  // namespace fixture
