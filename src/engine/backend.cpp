#include "engine/backend.h"

#include <cstdio>

namespace tfc::engine {

namespace {

std::string cg_message(std::size_t iterations, double rel_residual) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "cg backend failed to converge: %zu iterations, rel residual %.3e",
                iterations, rel_residual);
  return buf;
}

}  // namespace

CgNonConvergedError::CgNonConvergedError(std::size_t iterations, double rel_residual)
    : std::runtime_error(cg_message(iterations, rel_residual)),
      iterations_(iterations),
      rel_residual_(rel_residual) {}

}  // namespace tfc::engine
