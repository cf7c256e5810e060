// The default memory budget honours the process's cgroup memory limit:
// which limit files /proc/self/cgroup points at, and how one parses.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "scenario/resolve.hpp"

namespace plurality::scenario {
namespace {

using Files = std::vector<std::string>;

TEST(MemoryBudget, CgroupV1MemoryControllerThenV2) {
  // A hybrid host: the memory controller's own file, then its mount's root
  // (what a container sees), then the v2 candidates.
  EXPECT_EQ(cgroup_memory_limit_files("9:name=systemd:/\n4:memory:/api/abc\n"
                                      "2:cpu,cpuacct:/\n0::/\n"),
            (Files{"/sys/fs/cgroup/memory/api/abc/memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory/memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory.max"}));
  EXPECT_EQ(cgroup_memory_limit_files("5:cpuset,memory:/job/"),
            (Files{"/sys/fs/cgroup/memory/job/memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory/memory.limit_in_bytes"}));
  EXPECT_EQ(cgroup_memory_limit_files("0::/user.slice/s.scope\n"),
            (Files{"/sys/fs/cgroup/user.slice/s.scope/memory.max",
                   "/sys/fs/cgroup/memory.max"}));
}

TEST(MemoryBudget, OtherLinesNameNoFile) {
  EXPECT_TRUE(cgroup_memory_limit_files("").empty());
  EXPECT_TRUE(cgroup_memory_limit_files("6:memory_pressure:/x\n").empty());
  EXPECT_TRUE(cgroup_memory_limit_files("garbage\n\n4-memory-/x\n1::/x\n").empty());
}

TEST(MemoryBudget, LimitFileParse) {
  constexpr std::uint64_t kGiB = 1ull << 30;
  EXPECT_EQ(parse_cgroup_memory_limit("4294967296\n", 16 * kGiB), 4 * kGiB);
  // No limit: v2's "max", v1's near-2^63 default, anything at or above
  // physical RAM, and text that is not a number.
  for (const char* none : {"max\n", "9223372036854771712\n", "17179869184", "", " \n", "-1",
                           "12 GiB"}) {
    EXPECT_EQ(parse_cgroup_memory_limit(none, 16 * kGiB), std::nullopt) << none;
  }
}

}  // namespace
}  // namespace plurality::scenario
