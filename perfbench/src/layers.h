#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "client/query.h"
#include "common.h"
#include "db/snapshot.h"
#include "db/storage.h"
#include "engine/engine.h"
#include "ir/query.h"
#include "util/interner.h"

namespace eq::perfbench {

/// Per-layer replays for the traced run. Each one times a public call of
/// one layer with the workload's own inputs (its queries, its write
/// statements, its constants) and reports the layer's metrics.

/// core.* (graph build, partitioning, Algorithm 1, combine, safety),
/// unify.mgu_ns.p50 and db.* executor metrics over one query set,
/// evaluated against `snap`. `qs` must have ids assigned.
void ReplayCore(const ir::QuerySet& qs, const db::Snapshot& snap,
                Report* report);

/// engine.submit_us.p50, engine.flush_ms, engine.partitions_evaluated and
/// engine.rejected_unsafe: submits `programs` to one engine in `mode` on
/// `snap` (whose strings `interner` holds), then flushes.
void ReplayEngine(const std::vector<client::PortableQuery>& programs,
                  const db::Snapshot& snap,
                  std::shared_ptr<StringInterner> interner,
                  engine::EvalMode mode, Report* report);

/// sql.translate_write_us.p50, db.write_apply_us.p50/.p99,
/// db.delta_extract_us.p50, db.delta_apply_us.p50 and
/// net.delta_frame_bytes_per_write: translates and applies each write to
/// `primary`, extracts the version delta and applies it to `follower`
/// (same catalog, same interner).
void ReplayWrites(const std::vector<std::string>& writes,
                  db::Storage* primary, db::Storage* follower,
                  Report* report);

/// net.submit_encode_us, net.submit_decode_us, net.submit_frame_bytes:
/// the wire codec on each program as a forwarded Submit frame.
void ReplayNet(const std::vector<client::PortableQuery>& programs,
               Report* report);

/// util.intern_ns.p50 (one thread) and util.intern_ns_contended.p50
/// (`nproc` threads on one interner): lookups of the workload's
/// constants.
void ReplayIntern(const std::vector<std::string>& constants, Report* report);

/// Every string constant and relation name of `programs`.
std::vector<std::string> ConstantsOf(
    const std::vector<client::PortableQuery>& programs);

}  // namespace eq::perfbench

#endif  // PERFBENCH_LAYERS_H_
