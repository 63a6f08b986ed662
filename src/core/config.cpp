#include "core/config.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace resim::core {

void CoreConfig::validate() const {
  require(width >= 1 && width <= 16, "CoreConfig: width in [1,16]");
  if (ifq_size < width) {
    throw std::invalid_argument("core.ifq_size = " + std::to_string(ifq_size) +
                                " is below core.width = " + std::to_string(width) +
                                " (the IFQ must hold a fetch group)");
  }
  require(rob_size >= 2, "CoreConfig: rob_size >= 2");
  require(lsq_size >= 1, "CoreConfig: lsq_size >= 1");
  require(mem_read_ports >= 1, "CoreConfig: mem_read_ports >= 1");
  require(mem_write_ports >= 1, "CoreConfig: mem_write_ports >= 1");
  fu.validate();
  bp.validate();
  mem.validate();
  sample.validate();
  if (variant == PipelineVariant::kOptimized) {
    // Paper §IV.B: the N+3 pipeline is valid "with the restriction that
    // the simulated processor has up to N-1 memory ports".
    for (const auto& [path, ports] : {std::pair{"core.mem_read_ports", mem_read_ports},
                                      std::pair{"core.mem_write_ports", mem_write_ports}}) {
      if (ports > width - 1) {
        throw std::invalid_argument(std::string(path) + " = " + std::to_string(ports) +
                                    " exceeds core.width - 1 = " +
                                    std::to_string(width - 1) +
                                    " under pipeline.variant = optimized");
      }
    }
  }
}

CoreConfig CoreConfig::paper_4wide_perfect() {
  CoreConfig c;
  c.width = 4;
  c.bp = bpred::BPredConfig::paper_default();
  c.mem = cache::MemSysConfig::perfect_memory();
  c.variant = PipelineVariant::kOptimized;
  return c;
}

CoreConfig CoreConfig::paper_2wide_cache() {
  CoreConfig c;
  c.width = 2;
  c.bp = bpred::BPredConfig::perfect();
  c.mem = cache::MemSysConfig::paper_l1();
  c.variant = PipelineVariant::kEfficient;
  c.mem_read_ports = 1;
  c.mem_write_ports = 1;
  return c;
}

}  // namespace resim::core
