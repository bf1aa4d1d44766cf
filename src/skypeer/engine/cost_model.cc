#include "skypeer/engine/cost_model.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace skypeer {

const char* CostModelModeName(CostModelMode mode) {
  switch (mode) {
    case CostModelMode::kMeasured:
      return "measured";
    case CostModelMode::kCalibrated:
      return "calibrated";
    case CostModelMode::kUnit:
      return "unit";
  }
  return "?";
}

bool ParseCostModelMode(const std::string& name, CostModelMode* mode) {
  if (name == "measured") {
    *mode = CostModelMode::kMeasured;
  } else if (name == "calibrated") {
    *mode = CostModelMode::kCalibrated;
  } else if (name == "unit") {
    *mode = CostModelMode::kUnit;
  } else {
    return false;
  }
  return true;
}

double CostModel::Seconds(const OpCounts& ops) const {
  return static_cast<double>(ops.dominance_tests) * dominance_test_s +
         static_cast<double>(ops.scan_steps) * scan_step_s +
         static_cast<double>(ops.merge_pulls) * merge_pull_s +
         static_cast<double>(ops.sort_steps) * sort_step_s +
         static_cast<double>(ops.bytes_serialized) * byte_s +
         static_cast<double>(ops.page_reads) * page_read_s +
         static_cast<double>(ops.page_bytes) * page_byte_s +
         static_cast<double>(ops.summary_tests) * summary_test_s +
         static_cast<double>(ops.blocks_skipped) * block_skip_s;
}

std::string CostModel::ToProfileString() const {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "dominance_test_s=%.6e\n"
                "scan_step_s=%.6e\n"
                "merge_pull_s=%.6e\n"
                "sort_step_s=%.6e\n"
                "byte_s=%.6e\n"
                "page_read_s=%.6e\n"
                "page_byte_s=%.6e\n"
                "summary_test_s=%.6e\n"
                "block_skip_s=%.6e\n",
                dominance_test_s, scan_step_s, merge_pull_s, sort_step_s,
                byte_s, page_read_s, page_byte_s, summary_test_s,
                block_skip_s);
  return buffer;
}

bool CostModel::LoadProfileString(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || !std::isfinite(parsed) || parsed < 0.0) {
      return false;
    }
    if (key == "dominance_test_s") {
      dominance_test_s = parsed;
    } else if (key == "scan_step_s") {
      scan_step_s = parsed;
    } else if (key == "merge_pull_s") {
      merge_pull_s = parsed;
    } else if (key == "sort_step_s") {
      sort_step_s = parsed;
    } else if (key == "byte_s") {
      byte_s = parsed;
    } else if (key == "page_read_s") {
      page_read_s = parsed;
    } else if (key == "page_byte_s") {
      page_byte_s = parsed;
    } else if (key == "summary_test_s") {
      summary_test_s = parsed;
    } else if (key == "block_skip_s") {
      block_skip_s = parsed;
    }
    // Unknown keys are ignored for forward compatibility.
  }
  return true;
}

}  // namespace skypeer
