#include "trace/trace_stats.hpp"

#include <iomanip>
#include <sstream>

namespace resim::trace {

namespace {

void accumulate(TraceStats& s, const TraceRecord& r) {
  ++s.total_records;
  if (r.wrong_path) ++s.wrong_path_records;
  switch (r.fmt) {
    case RecFormat::kOther: ++s.other_records; break;
    case RecFormat::kMem:
      ++s.mem_records;
      if (r.is_store) {
        ++s.store_records;
      } else {
        ++s.load_records;
      }
      break;
    case RecFormat::kBranch: ++s.branch_records; break;
  }
  s.total_bits += encoded_bits(r);
}

}  // namespace

TraceStats analyze(const Trace& t) {
  TraceStats s;
  for (const TraceRecord& r : t.records) accumulate(s, r);
  return s;
}

TraceStats analyze(TraceSource& src) {
  TraceStats s;
  drain(src, [&s](const TraceRecord& r) { accumulate(s, r); });
  return s;
}

std::string TraceStats::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "records " << total_records << " (wrong-path " << wrong_path_records << ", "
     << 100.0 * wrong_path_overhead() << "% overhead), "
     << "mix O/M/B = " << other_records << '/' << mem_records << '/' << branch_records
     << ", bits/inst " << bits_per_inst();
  return os.str();
}

}  // namespace resim::trace
