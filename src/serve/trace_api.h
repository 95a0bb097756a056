// Trace ingest + flight-recorder endpoints.
//
// Added to the dataset server's route table by qdb_cli serve / coordinate:
//
//   POST /trace         — ingest one process's Chrome-trace dump into the
//                         content-addressed store.  Body must be a JSON
//                         object with a "traceEvents" array (the exact
//                         format qdb_cli --trace writes); stored verbatim
//                         via Store::put_blob, so identical dumps dedup and
//                         the response {"hash", "events"} names the blob a
//                         later qdb_trace_merge can pull.  No query keys.
//   GET /debug/flight   — dump this process's flight-recorder ring as JSON
//                         (see obs/flight.h for the schema).  Accepts only
//                         `n` (1..256, the max records to return); a
//                         malformed n is a 400.
//
// The route table answers wrong methods (405 + Allow), unknown paths (404),
// unknown query keys and bodies sent to /debug/flight (400); the handlers
// validate the trace body and `n`, with JSON error bodies.
#pragma once

#include "serve/server.h"
#include "store/store.h"

namespace qdb::serve {

/// Add the POST /trace and GET /debug/flight rows.  The store must outlive the
/// server; call before start().
void attach_trace_api(DatasetServer& server, const store::Store& store);

}  // namespace qdb::serve
