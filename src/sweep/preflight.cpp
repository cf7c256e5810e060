#include "sweep/preflight.hpp"

#include <cstdio>

#include "scenario/resolve.hpp"
#include "support/check.hpp"

namespace plurality::sweep {

std::uint64_t preflight_cell(CellOutcome& cell, std::uint64_t budget) {
  try {
    const scenario::Resolution resolved =
        scenario::resolve(cell.requested, execution_thread_budget(), budget);
    cell.resolved = resolved.spec;
    return scenario::estimate_cell_memory_bytes(resolved);
  } catch (const CheckError&) {
    cell.resolved = cell.requested;
    return 0;
  }
}

std::string format_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", value, units[unit]);
  return buf;
}

}  // namespace plurality::sweep
