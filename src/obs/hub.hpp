// obs::Hub: one metrics registry, one event ring and one in-flight
// table: the unit of observability a ServerEnv hands the protocol
// code. The ring (TraceRecorder) feeds GET /trace, GET /flightrec and
// postmortem dumps alike. The sim substrate and benches share the
// process-global hub; each net::ClashNode owns a private one so
// scrapes stay per-node in multi-node processes (and the stats
// endpoint serves exactly its node's view).
#pragma once

#include "obs/inflight.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace clash::obs {

struct Hub {
  Registry registry;
  TraceRecorder tracer;
  InflightTable inflight;

  static Hub& global() {
    static Hub* h = new Hub();  // never destroyed: instrumented code
                                // may record during static teardown
    return *h;
  }
};

}  // namespace clash::obs
