// ipa-analyze self-test fixture: must trip exactly `rank-inversion`,
// through one level of callee expansion.
//
// Neither function is wrong in isolation: the caller takes kTransport (70), the
// helper takes kServer (100). Composed, the helper's acquisition happens
// under the caller's lower-ranked lock — an inversion only whole-program
// callee expansion can see.
#include "common/sync.hpp"

namespace fixture {

class CrossFunction {
 public:
  void drain() {
    LockGuard lock(transport_mutex_);
    note_server();  // acquires rank 100 under held rank 70: reported
  }

 private:
  void note_server() { LockGuard lock(server_mutex_); }

  Mutex transport_mutex_{LockRank::kTransport, "fixture-transport"};
  Mutex server_mutex_{LockRank::kServer, "fixture-server"};
};

}  // namespace fixture
