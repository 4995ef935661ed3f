#ifndef PRISMA_GDH_FIXPOINT_PROCESS_H_
#define PRISMA_GDH_FIXPOINT_PROCESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/fixpoint.h"
#include "gdh/machine_params.h"
#include "gdh/messages.h"
#include "gdh/transport.h"
#include "obs/metrics.h"
#include "pool/owned.h"
#include "pool/runtime.h"

namespace prisma::gdh {

/// One partition of a distributed transitive-closure fixpoint
/// (DESIGN.md §11): a short-lived POOL-X process spawned by the query
/// coordinator on the PE of one edge fragment. It ingests its slice of
/// the hash-partitioned edge relation from the OFM shuffle producers,
/// then alternates coordinator-driven join rounds with all-to-all delta
/// shuffles over the streaming exchange channels until every partition's
/// delta is empty. After each vote it streams the round's fresh owned
/// pairs to the coordinator, so its share of the closure is there when
/// the rounds end, and its final ExecPlanReply carries only a status.
///
/// The known set is the kernel's owned set: a recovery-free intermediate
/// result (§2.5: "OFMs needed for query processing only do not require
/// extensive crash recovery facilities") — intermediate fixpoint state is
/// rebuilt by re-running the query, never recovered.
///
/// Fault tolerance composes from the transport's guarantees
/// (gdh/transport.h) plus idempotent control handling: the receiver
/// seq-deduplicates inbound delta batches per round side and producer,
/// and a round's rows wait until that round opens; outbound streams
/// (round and result streams alike) retransmit under the machine's
/// RetransmitPolicy, duplicated round directives are dropped by the round
/// counter, votes are retransmitted on a timer until the coordinator
/// advances, and the final reply retransmits until the coordinator kills
/// this process at statement completion. Sending the final reply closes
/// every outbound stream.
class FixpointPeProcess : public pool::Process {
 public:
  struct Config {
    /// Exchange id shared by every channel of this fixpoint (edge
    /// shuffle and inter-PE rounds alike).
    uint64_t fixpoint_id = 0;
    size_t index = 0;    // This partition's index.
    size_t num_pes = 1;  // Total fixpoint partitions.
    /// Edge-relation producers (one shuffle channel per edge fragment).
    size_t edge_producers = 0;
    pool::ProcessId coordinator = pool::kNoProcess;
    /// The coordinator registered this id for our ExecPlanReply.
    uint64_t reply_request_id = 0;
    /// Rounds join by `machine.fixpoint_algorithm`. Outbound streams
    /// retransmit like OFM shuffles; votes and the final reply are resent
    /// every `machine.retransmit.resend_ns` (0: never, fault-free runs).
    MachineParams machine;
  };

  /// Result batches in flight per stream to the coordinator. The result
  /// shares PE 0's inbound links with the next round's deltas and votes:
  /// one batch at a time fills the links' idle time between rounds, where
  /// a wider window queues batches ahead of the round's traffic. On
  /// vbench analytic_suite seed 1 the closure took 19.57 ms of virtual
  /// time with one batch in flight and 21.01 ms with the machine's window
  /// of 4.
  static constexpr uint64_t kResultWindow = 1;

  explicit FixpointPeProcess(Config config);

  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override {
    return "fixpoint:" + std::to_string(config_.index);
  }

 private:
  /// Channel side for round `round`'s owner (copy 0) or smart-index
  /// (copy 1) streams; side 0 is reserved for the edge shuffle.
  static int SideFor(uint64_t round, int copy) {
    return 1 + static_cast<int>(round) * 2 + copy;
  }
  /// Side of round `round`'s result stream to the coordinator: negative,
  /// so a stream's side tells result from round streams.
  static int ResultSide(uint64_t round) {
    return -1 - static_cast<int>(round);
  }
  /// Copies a round ships: the smart strategy adds the index copy.
  int copies() const {
    return config_.machine.fixpoint_algorithm == exec::TcAlgorithm::kSmart
               ? 2
               : 1;
  }

  StreamSender::Options OutOptions();
  void HandleStart(const pool::Mail& mail);
  void HandleRound(const pool::Mail& mail);
  /// Ingests edge rows, or holds a round's rows for AbsorbRound.
  Status Take(StreamReceiver::Delivery& delivery);
  void HandleAck(const pool::Mail& mail);

  /// Seeds once the edge relation is complete, absorbs the current
  /// round's held rows, and votes once the current round is fully
  /// absorbed and fully first-transmitted.
  void Advance();
  void AbsorbRound();
  void Seed();
  void SendRoundStreams(uint64_t round, exec::RoutedPairs owner,
                        exec::RoutedPairs index);
  /// Streams the round's fresh owned pairs (the kernel's delta) to the
  /// coordinator.
  void StreamResult(uint64_t round);
  bool OutboundSentComplete(uint64_t round) const;
  void MaybeVote();
  void SendReply(Status status);
  void Fail(Status status);

  Config config_;
  // Process-local state below is wrapped in the ownership checker.
  pool::OwnedPtr<exec::FixpointPartition> kernel_;
  pool::Owned<std::vector<pool::ProcessId>> peers_;
  /// Delivered round rows not absorbed yet, by side: a peer may run
  /// ahead into a round this partition has not opened.
  pool::Owned<std::map<int, std::vector<Tuple>>> held_;
  /// Round streams to the peers, one per (round, copy, peer), and result
  /// streams to the coordinator, one per round with fresh pairs, tagged
  /// with their round; acks and timers of closed streams fall through.
  StreamSender out_;
  StreamReceiver in_;
  Resender reply_;
  Resender vote_;  // The latest vote.
  /// First-transmission bits per round (retransmissions excluded), the
  /// shipping-cost axis reported on each vote.
  pool::Owned<std::map<uint64_t, uint64_t>> wire_bits_by_round_;
  /// First-transmission bits of the result streams, reported on the final
  /// reply.
  uint64_t result_bits_ = 0;

  bool started_ = false;
  bool seeded_ = false;
  bool failed_ = false;
  uint64_t current_round_ = 0;  // Valid once seeded_ (round 0 = seed).
  int64_t voted_round_ = -1;
  uint64_t absorbed_new_current_ = 0;  // New owned pairs this round.
  uint64_t round_products_ = 0;        // Join products this round.
  uint64_t next_token_ = 1;

  obs::Counter* m_batches_sent_ = nullptr;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_FIXPOINT_PROCESS_H_
