// The declarative reconfiguration plane: ParamRegistry reflection,
// config-file round-trips, --set overlays, and sweep-spec expansion.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/config_file.hpp"
#include "config/names.hpp"
#include "config/param_registry.hpp"
#include "config/sweep_spec.hpp"
#include "driver/result_export.hpp"
#include "driver/sweep_grid.hpp"
#include "trace/tracegen.hpp"
#include "trace/writer.hpp"
#include "workload/suite.hpp"

namespace resim::config {
namespace {

const ParamRegistry& reg() { return ParamRegistry::instance(); }

// --- ParamRegistry ---------------------------------------------------------

TEST(ParamRegistry, EnumeratesTheWholeConfigSurface) {
  const auto paths = reg().enumerate();
  EXPECT_GE(paths.size(), 40u);
  // The issue's marquee examples all exist.
  for (const char* p : {"core.rob_size", "core.fu.div_latency", "bp.kind",
                        "mem.l1d.assoc", "pipeline.variant", "core.width"}) {
    EXPECT_NE(reg().find(p), nullptr) << p;
  }
  // Paths are unique.
  auto sorted = paths;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(ParamRegistry, EveryParameterIsSettableFromItsOwnRendering) {
  // get -> set must be the identity for every parameter on both paper
  // machines (the acceptance bar: everything enumerate() lists is
  // drivable by string).
  for (const auto& cfg : {core::CoreConfig::paper_4wide_perfect(),
                          core::CoreConfig::paper_2wide_cache()}) {
    core::CoreConfig target;  // defaults, then overwrite every param
    for (const auto& p : reg().params()) {
      ASSERT_NO_THROW(reg().set(target, p.path, reg().format(p, cfg))) << p.path;
    }
    for (const auto& p : reg().params()) {
      EXPECT_EQ(reg().format(p, target), reg().format(p, cfg)) << p.path;
    }
    target.validate();
  }
}

TEST(ParamRegistry, EveryParameterRejectsGarbageNamingItsPath) {
  for (const auto& p : reg().params()) {
    core::CoreConfig cfg;
    try {
      reg().set(cfg, p.path, "definitely-not-a-value");
      FAIL() << p.path << " accepted garbage";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(p.path), std::string::npos)
          << p.path << " error lacks its dotted path: " << e.what();
    }
  }
}

TEST(ParamRegistry, RangeAndPow2ViolationsNameThePath) {
  core::CoreConfig cfg;
  EXPECT_THROW(reg().set(cfg, "core.width", "17"), std::invalid_argument);
  EXPECT_THROW(reg().set(cfg, "core.rob_size", "1"), std::invalid_argument);
  EXPECT_THROW(reg().set(cfg, "bp.pht_entries", "1000"), std::invalid_argument);
  try {
    reg().set(cfg, "bp.pht_entries", "1000");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bp.pht_entries"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos);
  }
  EXPECT_THROW(reg().set(cfg, "no.such.param", "1"), std::invalid_argument);
}

TEST(ParamRegistry, TypedAccessors) {
  core::CoreConfig cfg;
  reg().set(cfg, "pipeline.variant", "efficient");
  EXPECT_EQ(cfg.variant, core::PipelineVariant::kEfficient);
  reg().set(cfg, "bp.kind", "gshare");
  EXPECT_EQ(cfg.bp.kind, bpred::DirKind::kGShare);
  reg().set(cfg, "mem.perfect", "false");
  EXPECT_FALSE(cfg.mem.perfect);
  reg().set(cfg, "mem.l1d.assoc", "4");
  EXPECT_EQ(cfg.mem.l1d.assoc, 4u);
  reg().set(cfg, "mem.l1d.repl", "random");
  EXPECT_EQ(cfg.mem.l1d.repl, cache::ReplPolicy::kRandom);
  reg().set(cfg, "core.fu.div_latency", "20");
  EXPECT_EQ(cfg.fu.div_latency, 20u);
  EXPECT_EQ(reg().get(cfg, "bp.kind"), "gshare");
  EXPECT_EQ(reg().get(cfg, "mem.l1d.assoc"), "4");
}

TEST(ParamRegistry, DefaultsComeFromDefaultConstructedConfig) {
  EXPECT_EQ(reg().default_value(reg().at("core.rob_size")), "16");
  EXPECT_EQ(reg().default_value(reg().at("bp.kind")), "2lev");
  EXPECT_EQ(reg().default_value(reg().at("mem.perfect")), "true");
}

// --- tokenizers ------------------------------------------------------------

TEST(Tokenizers, SplitListTrimsAndRejectsEmptyItems) {
  EXPECT_EQ(split_list("gzip, vpr ,parser", "t"),
            (std::vector<std::string>{"gzip", "vpr", "parser"}));
  EXPECT_EQ(split_list(" one ", "t"), (std::vector<std::string>{"one"}));
  EXPECT_THROW((void)split_list("gzip, ,vpr", "t"), std::invalid_argument);
  EXPECT_THROW((void)split_list("a,,b", "t"), std::invalid_argument);
  EXPECT_THROW((void)split_list("a,b,", "t"), std::invalid_argument);  // trailing comma
  EXPECT_THROW((void)split_list("", "t"), std::invalid_argument);
  EXPECT_THROW((void)split_list("  ", "t"), std::invalid_argument);
}

TEST(Tokenizers, SplitAssignment) {
  const auto [k, v] = split_assignment(" core.rob_size = 32 ", "t");
  EXPECT_EQ(k, "core.rob_size");
  EXPECT_EQ(v, "32");
  // First '=' splits, so enum values may not contain '=' but keys never do.
  const auto [k2, v2] = split_assignment("a=b=c", "t");
  EXPECT_EQ(k2, "a");
  EXPECT_EQ(v2, "b=c");
  EXPECT_THROW((void)split_assignment("novalue", "t"), std::invalid_argument);
  EXPECT_THROW((void)split_assignment("=v", "t"), std::invalid_argument);
  EXPECT_THROW((void)split_assignment("k=", "t"), std::invalid_argument);
}

// --- config files ----------------------------------------------------------

TEST(ConfigFile, SaveLoadRoundTripIsExact) {
  for (const auto& cfg : {core::CoreConfig::paper_4wide_perfect(),
                          core::CoreConfig::paper_2wide_cache()}) {
    std::ostringstream saved;
    save_config(saved, cfg);

    core::CoreConfig loaded;  // defaults
    std::istringstream in(saved.str());
    load_config(in, loaded, "roundtrip");
    loaded.validate();
    for (const auto& p : reg().params()) {
      EXPECT_EQ(reg().format(p, loaded), reg().format(p, cfg)) << p.path;
    }

    // save -> load -> save is byte-identical.
    std::ostringstream saved2;
    save_config(saved2, loaded);
    EXPECT_EQ(saved.str(), saved2.str());
  }
}

TEST(ConfigFile, PartialFileIsAnOverlay) {
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  std::istringstream in(
      "# comment\n"
      "\n"
      "core.rob_size = 32   # inline comment\n"
      "bp.kind = perfect\n");
  load_config(in, cfg, "overlay");
  EXPECT_EQ(cfg.rob_size, 32u);
  EXPECT_EQ(cfg.bp.kind, bpred::DirKind::kPerfect);
  EXPECT_EQ(cfg.width, 4u);  // untouched
}

TEST(ConfigFile, RejectionsNameFileLineAndPath) {
  core::CoreConfig cfg;
  {
    std::istringstream in("core.rob_size = 32\nnot.a.param = 1\n");
    try {
      load_config(in, cfg, "bad.cfg");
      FAIL();
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("not.a.param"), std::string::npos) << msg;
    }
  }
  {
    std::istringstream in("core.rob_size = 1\n");
    try {
      load_config(in, cfg, "bad.cfg");
      FAIL();
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad.cfg:1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("core.rob_size"), std::string::npos) << msg;
    }
  }
  {
    std::istringstream in("just some words\n");
    EXPECT_THROW(load_config(in, cfg, "bad.cfg"), std::invalid_argument);
  }
}

TEST(ConfigFile, SetOverridesConfigFile) {
  // The CLI applies --config first, then every --set in order: the last
  // writer wins.
  core::CoreConfig cfg = core::CoreConfig::paper_4wide_perfect();
  std::istringstream in("core.rob_size = 32\ncore.lsq_size = 16\n");
  load_config(in, cfg, "file");
  apply_sets(cfg, {"core.rob_size=64", "core.rob_size=128"});
  EXPECT_EQ(cfg.rob_size, 128u);  // --set beats the file; last --set wins
  EXPECT_EQ(cfg.lsq_size, 16u);   // file value survives where no --set
  EXPECT_THROW(apply_set(cfg, "core.rob_size"), std::invalid_argument);
  EXPECT_THROW(apply_set(cfg, "core.rob_size=1"), std::invalid_argument);
}

std::string saved(const core::CoreConfig& cfg) {
  std::ostringstream os;
  save_config(os, cfg);
  return os.str();
}

TEST(ConfigFile, ResolveMachineIsDefaultsThenConfigThenSetsAndNothingElse) {
  std::vector<std::string> assigned;
  const core::CoreConfig cfg = resolve_machine("core.rob_size = 32\ncore.width = 8\n",
                                               "file", {"core.rob_size=64"}, &assigned);
  EXPECT_EQ(cfg.rob_size, 64u);  // the set beats the config text
  EXPECT_EQ(cfg.width, 8u);
  // Nothing is derived from the width: IFQ, LSQ and ports keep the defaults.
  const auto defaults = core::CoreConfig::paper_4wide_perfect();
  EXPECT_EQ(cfg.ifq_size, defaults.ifq_size);
  EXPECT_EQ(cfg.lsq_size, defaults.lsq_size);
  EXPECT_EQ(cfg.mem_read_ports, defaults.mem_read_ports);
  EXPECT_EQ(assigned, (std::vector<std::string>{"core.rob_size", "core.width"}));
  EXPECT_EQ(saved(resolve_machine("", "none", {})), saved(defaults));
  try {
    (void)resolve_machine("core.width = 4\nbogus.param = 1\n", "f.cfg", {});
    FAIL() << "expected a rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("f.cfg:2"), std::string::npos) << e.what();
  }
}

TEST(ConfigFile, CrossFieldErrorsNameTheParametersToChange) {
  const auto error_of = [](const std::string& set) -> std::string {
    try {
      resolve_machine("", "", {set}).validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "valid";
  };
  EXPECT_EQ(error_of("core.width=2"),
            "core.mem_read_ports = 2 exceeds core.width - 1 = 1 under "
            "pipeline.variant = optimized");
  EXPECT_EQ(error_of("core.mem_write_ports=4"),
            "core.mem_write_ports = 4 exceeds core.width - 1 = 3 under "
            "pipeline.variant = optimized");
  EXPECT_EQ(error_of("core.width=16"),
            "core.ifq_size = 8 is below core.width = 16 (the IFQ must hold a fetch group)");
}

// --- sweep specs -----------------------------------------------------------

TEST(SweepSpec, ExpandAxisValues) {
  EXPECT_EQ(expand_axis_values("16,32 , 64", "t"),
            (std::vector<std::string>{"16", "32", "64"}));
  EXPECT_EQ(expand_axis_values("2..8 step 2", "t"),
            (std::vector<std::string>{"2", "4", "6", "8"}));
  EXPECT_EQ(expand_axis_values("3..5", "t"),
            (std::vector<std::string>{"3", "4", "5"}));
  EXPECT_EQ(expand_axis_values("7..7", "t"), (std::vector<std::string>{"7"}));
  EXPECT_EQ(expand_axis_values("1..10 step 4", "t"),
            (std::vector<std::string>{"1", "5", "9"}));
  EXPECT_THROW((void)expand_axis_values("8..2", "t"), std::invalid_argument);
  EXPECT_THROW((void)expand_axis_values("2..8 step 0", "t"), std::invalid_argument);
  EXPECT_THROW((void)expand_axis_values("x..8", "t"), std::invalid_argument);
}

TEST(SweepSpec, ParseAxesSetsAndScalars) {
  std::istringstream in(
      "# demo spec\n"
      "bench = gzip,parser\n"
      "set core.mem_write_ports = 2\n"
      "core.width = 2..4 step 2\n"
      "insts = 12345\n"
      "bp.kind = 2lev,perfect\n");
  const auto spec = parse_sweep_spec(in, "demo", core::CoreConfig::paper_4wide_perfect());
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].path, "bench");
  EXPECT_EQ(spec.axes[1].path, "core.width");
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(spec.axes[2].path, "bp.kind");
  EXPECT_EQ(spec.insts, 12345u);
  EXPECT_TRUE(spec.insts_set);
  EXPECT_EQ(spec.base.mem_write_ports, 2u);
  EXPECT_TRUE(spec.is_pinned("core.mem_write_ports"));
  EXPECT_TRUE(spec.is_pinned("core.width"));   // axes pin too
  EXPECT_FALSE(spec.is_pinned("core.lsq_size"));
  EXPECT_EQ(spec.point_count(), 2u * 2u * 2u);
}

TEST(SweepSpec, ParseErrorsNameFileLineAndPath) {
  const auto expect_parse_error = [](const std::string& text, const char* needle) {
    std::istringstream in(text);
    try {
      (void)parse_sweep_spec(in, "spec", core::CoreConfig{});
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("spec:"), std::string::npos) << msg;
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  };
  expect_parse_error("no.such.param = 1,2\n", "no.such.param");
  expect_parse_error("core.width = 1,99\n", "core.width");       // bad value
  expect_parse_error("core.width = 2\ncore.width = 4\n", "duplicate axis");
  expect_parse_error("bench = gzip\nbench = parser\n", "duplicate axis");
  expect_parse_error("set bp.pht_entries = 999\n", "bp.pht_entries");
}

TEST(SweepGrid, CrossProductOrderAndLegacyLabels) {
  std::istringstream in(
      "bench = gzip,parser\n"
      "pipeline.variant = optimized\n"
      "core.width = 2,4\n"
      "core.rob_size = 16\n"
      "bp.kind = 2lev\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  const auto grid = driver::expand_spec(spec);
  ASSERT_EQ(grid.jobs.size(), 4u);
  // bench outermost, later axes spin faster.
  EXPECT_EQ(grid.jobs[0].label, "gzip/optimized/w2/rob16/2lev");
  EXPECT_EQ(grid.jobs[1].label, "gzip/optimized/w4/rob16/2lev");
  EXPECT_EQ(grid.jobs[2].label, "parser/optimized/w2/rob16/2lev");
  EXPECT_EQ(grid.jobs[3].label, "parser/optimized/w4/rob16/2lev");
  EXPECT_EQ(grid.jobs[2].workload, "parser");
  // All axes are standard CSV columns: no extras.
  EXPECT_TRUE(grid.extra_csv_paths.empty());
  // Width-linked derivations.
  EXPECT_EQ(grid.jobs[0].config.mem_read_ports, 1u);  // width 2 -> 1 port
  EXPECT_EQ(grid.jobs[1].config.mem_read_ports, 3u);  // width 4 -> 3 ports
  EXPECT_EQ(grid.jobs[0].config.lsq_size, 8u);        // rob 16 -> lsq 8
}

TEST(SweepGrid, PinnedParamsAreNotDerived) {
  std::istringstream in(
      "core.width = 2,8\n"
      "set core.mem_read_ports = 1\n"
      "set core.lsq_size = 4\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  const auto grid = driver::expand_spec(spec);
  ASSERT_EQ(grid.jobs.size(), 2u);
  for (const auto& j : grid.jobs) {
    EXPECT_EQ(j.config.mem_read_ports, 1u);
    EXPECT_EQ(j.config.lsq_size, 4u);
  }
  // Default bench axis prepended.
  EXPECT_EQ(grid.jobs[0].workload, "gzip");
  EXPECT_EQ(grid.jobs[0].label, "gzip/w2");
}

TEST(SweepGrid, ResolveSweepPinsSetsAndScalesTheConfigBase) {
  // A config file is the base machine the derivations scale: its LSQ,
  // IFQ and port counts follow each point's width and ROB.
  const core::CoreConfig base = resolve_machine(
      "core.lsq_size = 4\ncore.ifq_size = 2\ncore.mem_read_ports = 1\n", "base.cfg", {});
  const std::string text = "core.width = 2,8\ncore.rob_size = 64\nset core.fu.alu_count = 2\n";
  std::istringstream in(text);
  const auto scaled = driver::expand_spec(driver::resolve_sweep(in, "spec", base, {}, {}));
  ASSERT_EQ(scaled.jobs.size(), 2u);
  EXPECT_EQ(scaled.jobs[0].config.lsq_size, 32u);
  EXPECT_EQ(scaled.jobs[1].config.ifq_size, 8u);
  EXPECT_EQ(scaled.jobs[1].config.mem_read_ports, 7u);
  EXPECT_EQ(scaled.jobs[0].config.fu.alu_count, 2u);

  // A set pins its parameter at every point, over the spec's own `set`
  // line too; insts, when given, replaces the spec's.
  std::istringstream in2(text);
  const auto spec = driver::resolve_sweep(in2, "spec", base,
                                          {"core.lsq_size=6", "core.fu.alu_count=3"}, 7000);
  EXPECT_TRUE(spec.is_pinned("core.lsq_size"));
  EXPECT_EQ(spec.insts, 7000u);
  for (const auto& job : driver::expand_spec(spec).jobs) {
    EXPECT_EQ(job.config.lsq_size, 6u);
    EXPECT_EQ(job.config.fu.alu_count, 3u);
    EXPECT_EQ(job.gen.max_insts, 7000u);
  }
}

TEST(SweepGrid, ExpandSweepAttachesAPreparedTrace) {
  trace::TraceGenConfig g;
  g.max_insts = 500;
  const trace::Trace t =
      trace::TraceGenerator(workload::make_workload("vpr"), g).generate();
  const std::string path = ::testing::TempDir() + "/expand_sweep.rsim";
  trace::save_trace(t, path);
  std::istringstream in("bench = gzip,parser\ntrace.backend = memory,stream,memory\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());

  int loads = 0;
  const driver::TraceLoader load = [&](const std::string& p) {
    ++loads;
    EXPECT_EQ(p, path);
    return std::make_shared<const trace::Trace>(t);
  };
  // The bench axis collapses to the trace's own benchmark; memory jobs
  // share one loaded copy, stream jobs open the file themselves.
  const auto grid = driver::expand_sweep(spec, path, load);
  ASSERT_EQ(grid.jobs.size(), 3u);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(grid.jobs[0].label, "vpr/memory");
  EXPECT_EQ(grid.jobs[0].workload, "vpr");
  EXPECT_EQ(grid.jobs[0].trace, grid.jobs[2].trace);
  ASSERT_NE(grid.jobs[0].trace, nullptr);
  EXPECT_TRUE(grid.jobs[0].trace_path.empty());
  EXPECT_EQ(grid.jobs[1].trace, nullptr);
  EXPECT_EQ(grid.jobs[1].trace_path, path);

  // Without a trace every job generates its own, and nothing is loaded.
  const auto generated = driver::expand_sweep(spec, "", load);
  EXPECT_EQ(loads, 1);
  ASSERT_EQ(generated.jobs.size(), 6u);
  EXPECT_EQ(generated.jobs[3].label, "parser/memory");
  EXPECT_EQ(generated.jobs[3].trace, nullptr);
  EXPECT_TRUE(generated.jobs[3].trace_path.empty());
  std::remove(path.c_str());
}

TEST(SweepGrid, NonStandardAxisBecomesAnExtraCsvColumn) {
  std::istringstream in(
      "set mem.perfect = false\n"
      "mem.l1d.assoc = 1,2,8\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  const auto grid = driver::expand_spec(spec);
  ASSERT_EQ(grid.jobs.size(), 3u);
  ASSERT_EQ(grid.extra_csv_paths, (std::vector<std::string>{"mem.l1d.assoc"}));
  EXPECT_EQ(grid.jobs[2].config.mem.l1d.assoc, 8u);
  EXPECT_EQ(grid.jobs[0].label, "gzip/assoc1");

  const auto header = driver::csv_header(grid.extra_csv_paths);
  EXPECT_NE(header.find(",mem.l1d.assoc,"), std::string::npos);
  driver::JobResult r;
  r.label = "x";
  r.workload = "gzip";
  r.config = grid.jobs[2].config;
  const auto row = driver::csv_row(r, grid.extra_csv_paths);
  EXPECT_NE(row.find(",8,"), std::string::npos);
  EXPECT_EQ(std::count(row.begin(), row.end(), ','),
            std::count(header.begin(), header.end(), ','));
}

TEST(SweepGrid, InvalidGridPointNamesItsLabel) {
  // width 1 under the Optimized pipeline violates the <= N-1 memory
  // port constraint (cross-field: only validate() can see it).
  std::istringstream in("core.width = 1\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  try {
    (void)driver::expand_spec(spec);
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gzip/w1"), std::string::npos) << e.what();
  }
}

// --- end to end: spec sweep determinism and exports ------------------------

TEST(SweepGrid, SpecSweepCsvByteIdenticalAcrossThreadCounts) {
  std::istringstream in(
      "bench = gzip\n"
      "core.width = 2,4\n"
      "mem.l1d.assoc = 2,8\n"     // non-standard axis -> extra column
      "set mem.perfect = false\n"
      "insts = 3000\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  const auto grid = driver::expand_spec(spec);
  ASSERT_EQ(grid.jobs.size(), 4u);

  const auto serial = driver::BatchRunner(1).run(grid.jobs);
  const auto parallel = driver::BatchRunner(4).run(grid.jobs);
  std::ostringstream c1, c4, j1, j4, f1, f4;
  driver::write_csv(c1, serial, grid.extra_csv_paths);
  driver::write_csv(c4, parallel, grid.extra_csv_paths);
  EXPECT_EQ(c1.str(), c4.str());
  driver::write_json(j1, serial);
  driver::write_json(j4, parallel);
  EXPECT_EQ(j1.str(), j4.str());
  driver::write_config_csv(f1, serial);
  driver::write_config_csv(f4, parallel);
  EXPECT_EQ(f1.str(), f4.str());
}

TEST(ResultExport, JsonCarriesFullConfigAndStats) {
  std::istringstream in("core.width = 2\ninsts = 2000\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  const auto results = driver::BatchRunner(1).run(driver::expand_spec(spec).jobs);
  ASSERT_EQ(results.size(), 1u);
  const std::string js = driver::result_json(results[0]);
  // Every registry parameter appears as a dotted-path key.
  for (const auto& p : reg().params()) {
    EXPECT_NE(js.find("\"" + p.path + "\":"), std::string::npos) << p.path;
  }
  EXPECT_NE(js.find("\"committed\":"), std::string::npos);
  EXPECT_NE(js.find("\"ipc\":"), std::string::npos);
  // The engine's StatsRegistry counters ride along.
  EXPECT_NE(js.find("\"counters\":"), std::string::npos);
  EXPECT_NE(js.find("fetch."), std::string::npos);
  EXPECT_EQ(std::count(js.begin(), js.end(), '{'),
            std::count(js.begin(), js.end(), '}'));
}

TEST(ResultExport, JsonEscapes) {
  EXPECT_EQ(driver::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// --- trace.backend ---------------------------------------------------------

TEST(TraceBackendParam, RegisteredWithEnumSpellings) {
  const auto* p = reg().find("trace.backend");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->enum_values, trace_backend_names());
  EXPECT_EQ(reg().default_value(*p), "memory");

  core::CoreConfig cfg;
  reg().set(cfg, "trace.backend", "stream");
  EXPECT_EQ(cfg.trace_backend, core::TraceBackend::kStream);
  EXPECT_EQ(reg().get(cfg, "trace.backend"), "stream");
  // Unknown spellings, "mmap" among them, are refused by name.
  for (const char* bad : {"floppy", "mmap"}) {
    try {
      reg().set(cfg, "trace.backend", bad);
      FAIL() << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("trace.backend"), std::string::npos) << bad;
    }
  }
  // Backend selection survives a config-file round trip like any param.
  std::ostringstream saved;
  save_config(saved, cfg);
  EXPECT_NE(saved.str().find("trace.backend = stream"), std::string::npos);
}

TEST(TraceBackendParam, SweepAxisOverBackendsChangesNoResultColumn) {
  // trace.backend as a declarative sweep axis: two jobs, two backends,
  // one extra CSV column — and bit-identical result columns, because the
  // backend is a host knob.
  std::istringstream in(
      "trace.backend = memory,stream\n"
      "insts = 2000\n");
  const auto spec = parse_sweep_spec(in, "spec", core::CoreConfig::paper_4wide_perfect());
  const auto grid = driver::expand_spec(spec);
  ASSERT_EQ(grid.jobs.size(), 2u);
  ASSERT_EQ(grid.extra_csv_paths, (std::vector<std::string>{"trace.backend"}));
  EXPECT_EQ(grid.jobs[0].label, "gzip/memory");
  EXPECT_EQ(grid.jobs[1].config.trace_backend, core::TraceBackend::kStream);

  const auto results = driver::BatchRunner(2).run(grid.jobs);
  ASSERT_EQ(results.size(), 2u);
  // Rows differ only in the backend column; strip it and compare.
  const auto strip = [](const driver::JobResult& r) {
    auto row = driver::csv_row(r, {});  // no extra columns: result payload only
    return row.substr(row.find(','));   // drop the per-backend label
  };
  EXPECT_EQ(strip(results[1]), strip(results[0]));
}

// --- names -----------------------------------------------------------------

TEST(Names, RoundTripAllEnums) {
  for (const auto& n : dir_kind_names()) EXPECT_EQ(dir_kind_name(dir_kind_of(n)), n);
  for (const auto& n : variant_names()) EXPECT_EQ(core::variant_name(variant_of(n)), n);
  for (const auto& n : repl_names()) EXPECT_EQ(repl_name(repl_of(n)), n);
  for (const auto& n : trace_backend_names()) {
    EXPECT_EQ(trace_backend_name(trace_backend_of(n)), n);
  }
  EXPECT_THROW((void)dir_kind_of("nope"), std::invalid_argument);
  EXPECT_THROW((void)trace_backend_of("nope"), std::invalid_argument);
  EXPECT_STREQ(memsys_kind_name(cache::MemSysConfig::perfect_memory()), "perfect");
  EXPECT_STREQ(memsys_kind_name(cache::MemSysConfig::paper_l1()), "l1");
  EXPECT_STREQ(memsys_kind_name(cache::MemSysConfig::with_unified_l2()), "l2");
}

}  // namespace
}  // namespace resim::config
