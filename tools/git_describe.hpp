// The commit a perf-trajectory row was measured at.
#pragma once

#include <cstdio>
#include <string>

namespace fdqos::tools {

// `git describe --always --dirty` of the working directory, or "unknown"
// outside a checkout.
inline std::string current_commit() {
  std::string commit;
  if (std::FILE* git =
          popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, git) != nullptr) commit = buf;
    pclose(git);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

}  // namespace fdqos::tools
