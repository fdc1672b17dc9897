// Fixture: must trip exactly [raw-thread] — a private thread beside the pool.
#include <thread>

namespace fixture {

void run_beside_the_pool() {
  std::jthread worker([] {});
}

}  // namespace fixture
