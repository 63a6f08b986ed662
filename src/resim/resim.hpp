// Umbrella header: the ReSim public API.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto wl   = resim::workload::make_workload("gzip");
//   resim::trace::TraceGenConfig gcfg;
//   gcfg.max_insts = 1'000'000;
//   auto trace = resim::trace::TraceGenerator(wl, gcfg).generate();
//
//   auto cfg = resim::core::CoreConfig::paper_4wide_perfect();
//   resim::trace::VectorTraceSource src(trace);
//   resim::core::ReSimEngine engine(cfg, src);
//   auto result = engine.run();
//
//   auto rpt = resim::core::fpga_throughput(
//       result, resim::fpga::xc5vlx50t().minor_clock_mhz,
//       engine.schedule().latency());
#ifndef RESIM_RESIM_H
#define RESIM_RESIM_H

#include "baseline/coupled.hpp"
#include "baseline/funcspeed.hpp"
#include "bpred/unit.hpp"
#include "cache/memsys.hpp"
#include "codegen/bpredgen.hpp"
#include "common/stats.hpp"
#include "config/config_file.hpp"
#include "config/names.hpp"
#include "config/param_registry.hpp"
#include "config/sweep_spec.hpp"
#include "core/cmp.hpp"
#include "core/engine.hpp"
#include "driver/batch_runner.hpp"
#include "driver/result_export.hpp"
#include "driver/run.hpp"
#include "driver/sweep_grid.hpp"
#include "core/perf.hpp"
#include "core/schedule.hpp"
#include "fpga/area.hpp"
#include "fpga/device.hpp"
#include "fpga/fit.hpp"
#include "fpga/literature.hpp"
#include "common/lz.hpp"
#include "trace/container.hpp"
#include "trace/file_source.hpp"
#include "trace/reader.hpp"
#include "trace/segment.hpp"
#include "trace/trace_stats.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "workload/micro.hpp"
#include "workload/suite.hpp"

#endif  // RESIM_RESIM_H
