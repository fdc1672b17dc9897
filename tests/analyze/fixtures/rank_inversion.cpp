// ipa-analyze self-test fixture: must trip exactly `rank-inversion`.
//
// kTransport (70) is held while kServer (100) is acquired: nested ranks must
// strictly descend, so acquiring an equal-or-higher rank under a held lock
// is the static form of the runtime rank abort.
#include "common/sync.hpp"

namespace fixture {

class Inverted {
 public:
  void ascending_nesting() {
    LockGuard outer(transport_mutex_);
    LockGuard inner(server_mutex_);  // rank 100 under rank 70: inversion
  }

 private:
  Mutex transport_mutex_{LockRank::kTransport, "fixture-transport"};
  Mutex server_mutex_{LockRank::kServer, "fixture-server"};
};

}  // namespace fixture
