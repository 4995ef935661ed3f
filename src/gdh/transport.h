#ifndef PRISMA_GDH_TRANSPORT_H_
#define PRISMA_GDH_TRANSPORT_H_

#include <algorithm>
#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/exchange.h"
#include "gdh/messages.h"
#include "obs/metrics.h"
#include "pool/runtime.h"

namespace prisma::gdh {

struct MachineParams;

// The machine's one retransmitting transport (DESIGN.md §10.5): every
// process that needs delivery over the lossy interconnect composes it from
// the pieces below, each acting for the process that owns it.

/// Retransmission settings, built once by core::PrismaDb from
/// MachineConfig and handed unchanged to every process.
struct RetransmitPolicy {
  /// First resend delay of an unanswered RPC or a silent stream; doubles
  /// per retry up to backoff_cap_ns.
  sim::SimTime timeout_ns = 10 * sim::kNanosPerSecond;
  sim::SimTime backoff_cap_ns = 10 * sim::kNanosPerSecond;
  /// RPC sends (the first included) or silent stream windows before the
  /// peer is reported unreachable.
  int attempts = 6;
  /// Period of the unacknowledged resends (final replies, fixpoint votes
  /// and directives, stmt_done); 0 disables them (fault-free machine).
  sim::SimTime resend_ns = 0;

  sim::SimTime Backoff(sim::SimTime delay) const {
    return std::min(delay * 2, backoff_cap_ns);
  }
};

/// Budget of the unacknowledged resends: the coordinator kills the sender
/// long before; the cap only stops an orphan from ticking forever.
inline constexpr int kOrphanResendBudget = 240;

/// Producer side of batch streams. A stream is a set of channels, one per
/// destination, sharing a frame header, a resend timer and an attempts
/// budget. Batches go out as far as each credit window allows; each ack
/// pumps more. The timer retransmits the lowest unacked sent batch of
/// every unfinished channel (repairing a lost batch and a lost ack alike:
/// receivers re-ack duplicates) with doubled backoff. Window progress
/// resets budget and delay; a budget spent without progress is reported
/// once. A fully acknowledged stream cancels its timer.
class StreamSender {
 public:
  struct Channel {
    exec::OutboundChannel channel;
    pool::ProcessId to = pool::kNoProcess;
    obs::Gauge* credit_gauge = nullptr;  // Unused credit; may be null.
  };

  struct Stream {
    // Set by the owner before Open.
    uint64_t exchange_id = 0;
    int side = 0;
    size_t producer = 0;
    uint64_t token = 0;  // Echoed by acks; keys the stream.
    std::vector<Channel> channels;
    uint64_t tag = 0;  // The owner's label (a fixpoint round).
    obs::Counter* stalls = nullptr;  // Drains halted at a window edge.
    // Kept by the sender.
    uint64_t first_bits = 0;  // Retransmissions are repair, not payload.
    int attempts = 0;         // Timer firings without window progress.
    sim::SimTime delay = 0;
    sim::EventId timer = 0;  // 0 = none pending.

    bool done() const;  // Every batch acknowledged.
    bool sent() const;  // Every batch transmitted at least once.
  };

  struct Options {
    const char* resend_kind = kMailBatchResend;  // Timer mail; body: token.
    RetransmitPolicy policy;
    /// Every transmission (`first` is false for retransmissions); may be
    /// null.
    std::function<void(const Stream&, int64_t bits, bool first)> on_send;
    /// A stream's budget ran out; the owner fails and Closes it.
    std::function<void(const Stream&)> on_exhausted;
    /// Registers the retransmission counter on first use, so fault-free
    /// metric dumps are unchanged; may be null.
    std::function<obs::Counter*()> retransmits;
  };

  StreamSender(pool::Process* owner, Options options)
      : owner_(owner), options_(std::move(options)) {}

  /// Transmits what the credit windows allow and arms the resend timer.
  const Stream& Open(Stream stream);
  /// Applies an ack and pumps; null for a token with no open stream.
  const Stream* OnAck(const BatchAckMsg& ack);
  /// Handles a resend timer; false when the token is not this sender's.
  bool OnTimer(const pool::Mail& mail);
  /// Discards a stream, cancelling its timer and zeroing its gauges.
  void Close(uint64_t token);
  void CloseAll();

  const Stream* Find(uint64_t token) const;
  const std::map<uint64_t, Stream>& streams() const { return streams_; }

 private:
  void Pump(Stream& stream);
  void Transmit(Stream& stream, const Channel& channel,
                const exec::TupleBatch& batch, bool first);
  void Arm(Stream& stream);  // Resend timer after stream.delay.
  void Disarm(Stream& stream);

  pool::Process* owner_;
  Options options_;
  std::map<uint64_t, Stream> streams_;  // By token.
  obs::Counter* m_retransmits_ = nullptr;
};

/// Consumer side of batch streams, the mirror of StreamSender: it owns one
/// channel per (side, producer) of one exchange. Receive routes a batch to
/// its channel, decodes it, drops duplicates, reorders, charges
/// unmarshalling per fresh row and counts; then it hands the in-order rows
/// the batch made deliverable to the owner's sink, and acks cumulatively
/// after the sink took them — duplicates too, as a lost ack would
/// otherwise stall the producer's window.
class StreamReceiver {
 public:
  struct Options {
    uint64_t exchange_id = 0;    // Batches of other exchanges are ignored.
    size_t consumer = 0;         // Stamped on acks.
    uint64_t credit_window = 0;  // Granted on acks; 0 keeps the sender's.
    obs::Counter* received = nullptr;  // Fresh batches; may be null.
    /// Registers the duplicate counter on first use; may be null.
    std::function<obs::Counter*()> dups = nullptr;
  };

  /// The rows one batch made deliverable, in stream order (none when it
  /// released only an empty eos batch).
  struct Delivery {
    int side = 0;
    size_t producer = 0;
    std::vector<Tuple> rows;
  };
  /// Takes a delivery; an error withholds the ack and is returned by
  /// Receive.
  using Sink = std::function<Status(Delivery&)>;

  StreamReceiver(pool::Process* owner, Options options)
      : owner_(owner), options_(std::move(options)) {}

  /// Declares `side`'s producers, before its first batch.
  void Expect(int side, size_t producers);
  /// Declares the producers of every side Expect did not name (fixpoint
  /// rounds); without it, batches of such sides are ignored.
  void ExpectOthers(size_t producers) { other_producers_ = producers; }
  /// Handles one kMailTupleBatch; the sink runs only if the batch
  /// released any (an empty eos batch too). A batch of another exchange,
  /// side or producer is ignored, and an undecodable frame returns its
  /// error, both unacked: such a frame can never be delivered, so the
  /// owner fails instead of stalling the producer.
  Status Receive(const pool::Mail& mail, const Sink& sink);
  /// True once every producer of `side` (or the one named) delivered its
  /// eos batch.
  bool Done(int side) const;
  bool Done(int side, size_t producer) const;
  /// Forgets what every channel received: a superseding session restarts
  /// its streams from their first batch.
  void Reset();

 private:
  pool::Process* owner_;
  Options options_;
  std::map<int, std::vector<exec::InboundChannel>> sides_;
  size_t other_producers_ = 0;
  obs::Counter* m_dups_ = nullptr;
};

/// Receiver options of consumer `consumer` of `exchange_id`: acks grant
/// the machine's credit window, and with its metrics batches count under
/// `labels` in the fixpoint.* family if `fixpoint`, else in exchange.*.
StreamReceiver::Options ConsumerOptions(uint64_t exchange_id, size_t consumer,
                                        const MachineParams& machine,
                                        obs::Labels labels, bool fixpoint);

/// A message its peer never acks: final replies, fixpoint votes and
/// stmt_done. Send transmits it at once; with resend_ns > 0 the latest
/// body is then resent every resend_ns until Stop() or the budget runs
/// out. The peer's dedup absorbs the copies, and it ends them by killing
/// this process or by moving on.
class Resender {
 public:
  Resender(pool::Process* owner, pool::ProcessId to, const char* kind,
           const char* timer_kind, sim::SimTime resend_ns,
           int budget = kOrphanResendBudget)
      : owner_(owner),
        to_(to),
        kind_(kind),
        timer_kind_(timer_kind),
        resend_ns_(resend_ns),
        budget_(budget) {}

  void Send(std::any body, int64_t size_bits);
  void Stop() { body_.reset(); }
  void OnTimer();  // The timer_kind mail.
  bool sent() const { return body_.has_value(); }  // Until Stop().

 private:
  pool::Process* owner_;
  pool::ProcessId to_;
  const char* kind_;
  const char* timer_kind_;
  sim::SimTime resend_ns_;
  int budget_;
  std::any body_;
  int64_t size_bits_ = 0;
  int left_ = 0;  // Resends left; > 0 exactly while the timer is armed.
};

/// Sends a stream consumer's final ExecPlanReply through `reply`; `rows`
/// ride on it only when `status` is OK.
void SendConsumerReply(Resender& reply, uint64_t request_id,
                       std::string fragment, Status status,
                       std::span<const Tuple> rows);

/// Client side of hardened request/reply (DESIGN.md §8): each request is
/// resent on a kMailRpcTimeout timer with doubled backoff until a reply
/// Settles it. Every send re-resolves the owner's `Target` name, so
/// retries chase a respawned callee (an unresolvable one is retried like
/// a lost message). A spent budget goes to the owner's exhaustion hook.
template <typename Target>
class RpcClient {
 public:
  struct PendingRpc {
    Target target;
    std::string kind;
    std::any body;
    int64_t size_bits = kControlBits;
    int attempts = 1;  // Sends so far.
    int max_attempts = 1;
    sim::SimTime delay = 0;  // Next resend delay.
    sim::EventId timer = 0;  // 0 = none pending.
  };

  struct Hooks {
    /// The callee's current pid; kNoProcess skips the send.
    std::function<pool::ProcessId(const PendingRpc&)> resolve;
    /// Before a resend, attempt counted: may re-aim the request and
    /// returns true, or settles it and returns false. May be null.
    std::function<bool(uint64_t id, PendingRpc&)> retry;
    /// The budget ran out; must settle `id` (still registered).
    std::function<void(uint64_t id, const PendingRpc&)> exhausted;
  };

  RpcClient(pool::Process* owner, RetransmitPolicy policy, Hooks hooks)
      : owner_(owner), policy_(policy), hooks_(std::move(hooks)) {}

  void Send(uint64_t id, Target target, std::string kind, std::any body,
            int64_t size_bits, int max_attempts) {
    PendingRpc rpc{std::move(target), std::move(kind), std::move(body),
                   size_bits, 1, max_attempts, policy_.timeout_ns, 0};
    Transmit(rpc);
    rpc.timer = Arm(id, rpc.delay);
    calls_[id] = std::move(rpc);
  }

  /// False if `id` was already settled (a duplicate reply).
  bool Settle(uint64_t id) {
    auto it = calls_.find(id);
    if (it == calls_.end()) return false;
    Cancel(it->second.timer);
    calls_.erase(it);
    return true;
  }

  /// Restarts `id`'s attempt budget: the callee showed progress (say, a
  /// fresh batch of the stream the request started). Unknown ids are
  /// ignored.
  void Renew(uint64_t id) {
    auto it = calls_.find(id);
    if (it != calls_.end()) it->second.attempts = 1;
  }

  void SettleAll() {
    for (const auto& [id, rpc] : calls_) {
      (void)id;  // prisma-lint: unused-status - key only identifies the call.
      Cancel(rpc.timer);
    }
    calls_.clear();
  }

  /// Handles kMailRpcTimeout: resends, or reports exhaustion once.
  void OnTimeout(const pool::Mail& mail) {
    const uint64_t id = *std::any_cast<std::shared_ptr<uint64_t>>(mail.body);
    auto it = calls_.find(id);
    if (it == calls_.end()) return;  // Answered in the meantime.
    PendingRpc& rpc = it->second;
    rpc.timer = 0;
    if (rpc.attempts >= rpc.max_attempts) {
      // A copy: the hook may settle other calls too. Whatever it left
      // registered is dropped.
      hooks_.exhausted(id, PendingRpc(rpc));
      calls_.erase(id);
      return;
    }
    ++rpc.attempts;
    if (hooks_.retry != nullptr && !hooks_.retry(id, rpc)) return;
    Transmit(rpc);
    rpc.delay = policy_.Backoff(rpc.delay);
    rpc.timer = Arm(id, rpc.delay);
  }

  /// Outstanding requests by id.
  const std::map<uint64_t, PendingRpc>& calls() const { return calls_; }

 private:
  void Transmit(const PendingRpc& rpc) {
    const pool::ProcessId to = hooks_.resolve(rpc);
    if (to != pool::kNoProcess) {
      owner_->SendMail(to, rpc.kind, rpc.body, rpc.size_bits);
    }
  }
  sim::EventId Arm(uint64_t id, sim::SimTime delay) {
    return owner_->SendSelfAfter(delay, kMailRpcTimeout,
                                 std::make_shared<uint64_t>(id));
  }
  void Cancel(sim::EventId timer) {
    if (timer != 0) owner_->runtime()->simulator()->Cancel(timer);
  }

  pool::Process* owner_;
  RetransmitPolicy policy_;
  Hooks hooks_;
  // Settlement contract (D6): a reply settles via Settle, a spent budget
  // via OnTimeout (through the owner's hook), a finished owner via
  // SettleAll.
  // PRISMA_SETTLES(calls_: success=Settle, exhaustion=OnTimeout,
  //                shed=SettleAll)
  std::map<uint64_t, PendingRpc> calls_;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_TRANSPORT_H_
