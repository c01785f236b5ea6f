// DC operating point with SPICE's continuation ladder:
//   1. direct Newton from the flat (all-zero) start,
//   2. gmin stepping (a shrinking shunt conductance on every node),
//   3. source stepping (ramping all independent sources from 0 to 100%).
#pragma once

#include <string>

#include "engine/history.hpp"
#include "engine/newton.hpp"
#include "engine/options.hpp"

namespace wavepipe::engine {

struct DcopResult {
  NewtonStats newton;
  std::string strategy;  ///< "direct", "gmin-stepping", or "source-stepping"
};

/// Solves the operating point into ctx.x / ctx.state_now.  Starts from the
/// guess already in ctx.x (zero it for a cold start).  Throws
/// ConvergenceError when every strategy fails.
///
/// `nodesets` (SPICE .ic): the listed node voltages are forced through a
/// 1-ohm clamp for a first solve, then the clamp is released and the
/// operating point re-solved from there — steering multi-stable circuits
/// into the requested state.
DcopResult SolveDcOperatingPoint(
    SolveContext& ctx, const SimOptions& options,
    std::span<const std::pair<int, double>> nodesets = {});

/// Wraps the converged operating point as the t = `time` history seed for a
/// transient run (qdot = 0: the operating point is an equilibrium).
std::shared_ptr<SolutionPoint> MakeDcSolutionPoint(const SolveContext& ctx, double time);

}  // namespace wavepipe::engine
