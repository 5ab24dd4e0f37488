// Fixture: wall-clock reads are forbidden anywhere under src/.
#include <chrono>

namespace fixture {

long
stamp()
{
    const auto t = std::chrono::system_clock::now();  // line 9: wall-clock
    return t.time_since_epoch().count();
}

}  // namespace fixture
