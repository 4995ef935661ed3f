#ifndef PRISMA_NET_NETWORK_H_
#define PRISMA_NET_NETWORK_H_

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace prisma::net {

/// Physical parameters of one communication link, defaulted to the paper's
/// prototype: 10 Mbit/s links, 256-bit packets (§3.2).
struct LinkParams {
  /// Serialization bandwidth of each link, bits per second.
  int64_t bandwidth_bps = 10'000'000;
  /// Fixed per-hop latency (wire propagation + switching), nanoseconds.
  sim::SimTime propagation_ns = 1'000;
  /// Latency of a loop-back (same-PE) delivery, nanoseconds.
  sim::SimTime local_delivery_ns = 500;
  /// Backlog watermark of one directed link: a message entering a link
  /// whose queue already holds this many increments net.backpressure (and
  /// is dropped when drop_on_backlog is set). 0 = unbounded, no watermark.
  int max_link_backlog = 0;
  /// Drop (instead of only counting) messages past the watermark.
  bool drop_on_backlog = false;
};

/// Failure behaviour of one directed link under a FaultPlan.
struct LinkFault {
  /// Per-hop probability the message vanishes on the wire.
  double drop_probability = 0;
  /// Per-hop probability an extra copy of the message is injected.
  double duplicate_probability = 0;
  /// Extra per-hop delay, uniform in [0, max_extra_delay_ns].
  sim::SimTime max_extra_delay_ns = 0;

  bool active() const {
    return drop_probability > 0 || duplicate_probability > 0 ||
           max_extra_delay_ns > 0;
  }
};

/// A scheduled bidirectional outage of the link between `a` and `b`:
/// every message entering either direction in [from_ns, until_ns) is lost.
struct LinkDownWindow {
  NodeId a = 0;
  NodeId b = 0;
  sim::SimTime from_ns = 0;
  sim::SimTime until_ns = 0;
};

/// A scheduled crash (and optional restart) of one PE. The network layer
/// carries these for the machine facade (core::PrismaDb), which kills the
/// PE's processes and later respawns its fragment managers; they are part
/// of the FaultPlan so one seed describes the whole failure schedule.
struct PeCrashEvent {
  NodeId pe = 0;
  sim::SimTime at_ns = 0;
  /// Restart instant; < 0 means the PE never comes back.
  sim::SimTime restart_at_ns = -1;
};

/// Deterministic seeded fault-injection plan. All randomness (drops,
/// duplicates, jitter) comes from one Rng(seed), so two runs of the same
/// workload under the same plan are byte-identical. An all-default plan
/// is inert: the network makes zero random draws and behaves exactly as
/// without a plan.
struct FaultPlan {
  uint64_t seed = 1;
  /// Fault behaviour applied to every directed link...
  LinkFault link;
  /// ...unless overridden for a specific directed (from, to) pair.
  std::map<std::pair<NodeId, NodeId>, LinkFault> per_link;
  std::vector<LinkDownWindow> down_windows;
  std::vector<PeCrashEvent> pe_crashes;

  bool active() const {
    if (link.active() || !down_windows.empty()) return true;
    for (const auto& [_, fault] : per_link) {
      if (fault.active()) return true;
    }
    return false;
  }
};

/// Hardware packet size used by the paper's network simulations.
constexpr int64_t kPacketBits = 256;

/// A message in flight or delivered. For machine-level traffic experiments
/// a message is a single 256-bit packet; the DBMS layers send larger
/// messages whose serialization time scales with size.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  int64_t size_bits = kPacketBits;
  sim::SimTime sent_at = 0;
  std::any payload;
};

/// Store-and-forward message-passing network over a Topology, running on
/// the discrete-event simulator.
///
/// Every directed link is a FIFO resource: a message occupies the link for
/// its serialization time (size / bandwidth) and experiences the fixed
/// propagation delay; contention appears as queueing before busy links.
/// Queues are unbounded (the DBMS applies its own flow control), and the
/// maximum backlog is reported in the statistics.
class Network {
 public:
  using Receiver = std::function<void(const Message&)>;

  Network(sim::Simulator* sim, Topology topology, LinkParams params = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topology_; }
  const LinkParams& params() const { return params_; }
  sim::Simulator* simulator() const { return sim_; }

  /// Installs the upcall invoked when a message reaches `node`.
  void SetReceiver(NodeId node, Receiver receiver);

  /// Injects a message at `src` addressed to `dst`; it is forwarded hop by
  /// hop and handed to dst's receiver (if any) on arrival.
  void Send(NodeId src, NodeId dst, int64_t size_bits, std::any payload);

  /// Installs a seeded fault plan; per-hop drops, duplicates and jitter
  /// apply to every subsequent non-loopback message (loopback deliveries
  /// model a PE's internal bus and never fail). Call before any traffic
  /// for reproducibility.
  void SetFaultPlan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Exempts messages matched by `predicate` from fault injection (e.g.
  /// the client's connection, which models the host interface rather than
  /// the interconnect). Null clears the exemption.
  using FaultExempt = std::function<bool(const Message&)>;
  void SetFaultExempt(FaultExempt predicate) {
    fault_exempt_ = std::move(predicate);
  }

  /// Convenience for single-packet sends (machine-level experiments).
  void SendPacket(NodeId src, NodeId dst) {
    Send(src, dst, kPacketBits, std::any());
  }

  /// Aggregate transport statistics since construction (or last Reset).
  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t messages_delivered = 0;
    /// Bits that crossed links, counted once per hop (loopback excluded).
    int64_t link_bits = 0;
    /// Sum over delivered messages of (delivery - send) time.
    sim::SimTime total_latency_ns = 0;
    sim::SimTime max_latency_ns = 0;
    /// Largest number of messages simultaneously queued on one link.
    int max_link_backlog = 0;
    /// Fault-injection outcomes (zero without an active FaultPlan).
    uint64_t dropped = 0;      // Lost to drop draws or down windows.
    uint64_t duplicated = 0;   // Extra copies injected.
    sim::SimTime delayed_ns = 0;  // Total jitter added across hops.
    /// Messages that hit the max_link_backlog watermark.
    uint64_t backpressure = 0;
    /// Messages reaching a node with no installed receiver.
    uint64_t no_receiver = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Delivery timestamps per destination node (for throughput windows).
  const std::vector<std::vector<sim::SimTime>>& delivery_times() const {
    return delivery_times_;
  }
  /// Stop recording per-delivery timestamps (they are only needed by the
  /// network experiments, not by the DBMS).
  void set_record_deliveries(bool record) { record_deliveries_ = record; }

  /// Busy-time fraction of the most loaded directed link over [0, now].
  double PeakLinkUtilization() const;

  /// Messages currently queued or in transmission, summed over every
  /// directed link. This is the live backpressure level the serving
  /// dispatcher keys its admission watermarks off (DESIGN.md §15.2) —
  /// unlike Stats::max_link_backlog it falls back to zero when queues
  /// drain, so hysteresis can re-open admission.
  int TotalBacklog() const;

  /// Mirrors transport statistics into the machine-wide registry
  /// (net.messages_sent, net.messages_delivered, net.link_bits,
  /// net.latency_ns histogram) and, when the tracer is enabled, records a
  /// send->deliver span per message. Either pointer may be null.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

 private:
  struct LinkState {
    sim::SimTime free_at = 0;   // Earliest instant the link can start sending.
    sim::SimTime busy_ns = 0;   // Accumulated serialization time.
    int backlog = 0;            // Messages waiting or in transmission.
  };

  LinkState& link(NodeId from, NodeId to) {
    return links_[static_cast<size_t>(from) * topology_.num_nodes() + to];
  }
  const LinkState& link(NodeId from, NodeId to) const {
    return links_[static_cast<size_t>(from) * topology_.num_nodes() + to];
  }

  /// Message is at `node` at the current sim time; forward or deliver.
  void Arrive(NodeId node, Message message);
  void Deliver(NodeId node, Message message);

  const LinkFault& FaultFor(NodeId from, NodeId to) const;
  bool LinkDown(NodeId from, NodeId to, sim::SimTime now) const;

  /// Registers the named fault counter on first use so inert runs keep
  /// their metric dumps unchanged.
  obs::Counter* LazyCounter(obs::Counter** slot, const char* name);

  sim::Simulator* sim_;
  Topology topology_;
  LinkParams params_;
  std::vector<LinkState> links_;
  std::vector<Receiver> receivers_;
  std::vector<std::vector<sim::SimTime>> delivery_times_;
  bool record_deliveries_ = false;
  Stats stats_;

  FaultPlan fault_plan_;
  bool faults_active_ = false;
  Rng fault_rng_{1};
  FaultExempt fault_exempt_;

  // Cached registry entries (null until AttachObservability).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_link_bits_ = nullptr;
  obs::Counter* m_packets_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
  // Fault/backpressure counters, registered lazily on first event.
  obs::Counter* m_dropped_ = nullptr;
  obs::Counter* m_duplicated_ = nullptr;
  obs::Counter* m_delayed_ns_ = nullptr;
  obs::Counter* m_backpressure_ = nullptr;
  obs::Counter* m_no_receiver_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace prisma::net

#endif  // PRISMA_NET_NETWORK_H_
