// Fixture: must trip exactly [detach] — a fire-and-forget thread.
#include <thread>

namespace fixture {

void fire_and_forget(std::thread worker) {
  worker.detach();
}

}  // namespace fixture
