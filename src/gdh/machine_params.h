#ifndef PRISMA_GDH_MACHINE_PARAMS_H_
#define PRISMA_GDH_MACHINE_PARAMS_H_

#include "exec/executor.h"
#include "exec/transitive_closure.h"
#include "gdh/optimizer.h"
#include "gdh/transport.h"
#include "obs/trace.h"

namespace prisma::gdh {

class PeLocalRegistry;
class PlanCache;

/// The machine's settings, built once by core::PrismaDb from MachineConfig
/// and copied whole into every process spawned (DESIGN.md §10.5). CPU
/// costs are not here: processes read the runtime's.
struct MachineParams {
  OptimizerRules rules;
  exec::ExprMode expr_mode = exec::ExprMode::kCompiled;
  RetransmitPolicy retransmit;
  /// Exchange framing (DESIGN.md §10): max tuples per batch (and per
  /// client_reply frame), and batches in flight per channel.
  uint64_t exchange_batch_rows = 64;
  uint64_t exchange_credit_window = 4;
  /// Join strategy of the distributed fixpoint (DESIGN.md §11).
  exec::TcAlgorithm fixpoint_algorithm = exec::TcAlgorithm::kSeminaive;
  /// Owned by the machine; each may be null: no co-located execution, no
  /// plan cache (OFMs then keep no plans), no instrumentation.
  PeLocalRegistry* registry = nullptr;
  PlanCache* plan_cache = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_MACHINE_PARAMS_H_
