// Shared helpers for the trace codec/container/streaming test suites.
#ifndef RESIM_TESTS_TRACE_TEST_UTIL_H
#define RESIM_TESTS_TRACE_TEST_UTIL_H

#include "trace/record.hpp"

namespace resim::trace::testutil {

/// Field-by-field equality on the wire-visible fields of each format.
inline bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  if (a.fmt != b.fmt || a.wrong_path != b.wrong_path) return false;
  switch (a.fmt) {
    case RecFormat::kOther:
      return a.fu == b.fu && a.out == b.out && a.in1 == b.in1 && a.in2 == b.in2;
    case RecFormat::kMem:
      return a.is_store == b.is_store && a.addr == b.addr && a.out == b.out &&
             a.in1 == b.in1 && a.in2 == b.in2;
    case RecFormat::kBranch:
      return a.ctrl == b.ctrl && a.taken == b.taken && a.pc == b.pc &&
             a.target == b.target && a.in1 == b.in1 && a.in2 == b.in2 && a.out == b.out;
  }
  return false;
}

}  // namespace resim::trace::testutil

#endif  // RESIM_TESTS_TRACE_TEST_UTIL_H
