// Fixture: std::function on a NoC hot path must be flagged.
#include <functional>

namespace fixture {

struct Ejector {
    std::function<bool(unsigned)> tryReserve;  // line 7: std-function
};

}  // namespace fixture
