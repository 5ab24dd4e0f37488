// Fixture: src/obs/ has no wall-clock exemption; observability reads
// Kernel::now() like the rest of src/, so lines 8 and 10 are flagged.
#include <chrono>

namespace fixture {

double
elapsedSeconds(std::chrono::steady_clock::time_point t0)  // line 8
{
    const auto dt = std::chrono::steady_clock::now() - t0;  // line 10
    return std::chrono::duration<double>(dt).count();
}

}  // namespace fixture
