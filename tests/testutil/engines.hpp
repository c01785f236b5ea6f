// The two configurations of engine::RunTransientSerial's step loop: plain
// serial, and fine-grained (the same loop with an intra-solve pool).  Tests
// that pin loop behaviour — rescue ladder, structured aborts, the bypass
// step-floor valve — run one body over both.
#pragma once

#include <string>
#include <vector>

#include "engine/transient.hpp"
#include "parallel/fine_grained.hpp"

namespace wavepipe::testutil {

struct LoopEngine {
  std::string name;
  int threads = 0;  ///< 0 = plain serial; otherwise the fine-grained pool size
};

inline std::vector<LoopEngine> LoopEngines() {
  return {{"serial", 0}, {"fine-grained x2", 2}};
}

inline engine::TransientResult RunLoopEngine(const LoopEngine& engine,
                                             const engine::Circuit& circuit,
                                             const engine::MnaStructure& structure,
                                             const engine::TransientSpec& spec,
                                             const engine::SimOptions& options = {}) {
  if (engine.threads == 0) {
    return engine::RunTransientSerial(circuit, structure, spec, options);
  }
  parallel::FineGrainedOptions fine;
  fine.threads = engine.threads;
  fine.sim = options;
  return parallel::RunTransientFineGrained(circuit, structure, spec, fine);
}

}  // namespace wavepipe::testutil
