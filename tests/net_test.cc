#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "sim/simulator.h"

namespace prisma::net {
namespace {

// -------------------------------------------------------------- Topology

TEST(TopologyTest, MeshShape) {
  Topology t = Topology::Mesh(8, 8);
  EXPECT_EQ(t.num_nodes(), 64);
  EXPECT_EQ(t.max_degree(), 4);   // Paper: 4 links per PE.
  // Corner node 0 has 2 neighbours, edge nodes 3, interior 4.
  EXPECT_EQ(t.neighbors(0).size(), 2u);
  EXPECT_EQ(t.neighbors(1).size(), 3u);
  EXPECT_EQ(t.neighbors(9).size(), 4u);
  EXPECT_EQ(t.Diameter(), 14);    // (8-1) + (8-1).
}

TEST(TopologyTest, TorusShape) {
  Topology t = Topology::Torus(8, 8);
  EXPECT_EQ(t.num_nodes(), 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(t.neighbors(i).size(), 4u);
  EXPECT_EQ(t.Diameter(), 8);     // 4 + 4.
}

TEST(TopologyTest, RingShape) {
  Topology t = Topology::Ring(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.neighbors(i).size(), 2u);
  EXPECT_EQ(t.Diameter(), 5);
  EXPECT_EQ(t.Distance(0, 5), 5);
  EXPECT_EQ(t.Distance(0, 9), 1);
}

TEST(TopologyTest, ChordalRingHasDegreeFourAndShortcuts) {
  Topology t = Topology::ChordalRing(64, 8);
  EXPECT_EQ(t.num_nodes(), 64);
  EXPECT_EQ(t.max_degree(), 4);   // Paper's chordal-ring variant.
  // Chords shorten long paths well below the plain ring's diameter (32).
  EXPECT_LT(t.Diameter(), 12);
  EXPECT_EQ(t.Distance(0, 8), 1);  // Direct chord.
}

TEST(TopologyTest, FullyConnectedDiameterOne) {
  Topology t = Topology::FullyConnected(8);
  EXPECT_EQ(t.Diameter(), 1);
  EXPECT_DOUBLE_EQ(t.AverageDistance(), 1.0);
}

TEST(TopologyTest, NextHopWalksShortestPath) {
  Topology t = Topology::Mesh(4, 4);
  for (int src = 0; src < 16; ++src) {
    for (int dst = 0; dst < 16; ++dst) {
      int node = src;
      int hops = 0;
      while (node != dst) {
        node = t.NextHop(node, dst);
        ++hops;
        ASSERT_LE(hops, 16) << "routing loop " << src << "->" << dst;
      }
      EXPECT_EQ(hops, t.Distance(src, dst)) << src << "->" << dst;
    }
  }
}

/// Walks every (src, dst) route of a rows x cols grid and checks that each
/// hop is a real neighbour, that the route changes column before row, and
/// that its length is the BFS distance.
void ExpectDimensionOrderRoutes(const Topology& t, int cols) {
  const int n = t.num_nodes();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      SCOPED_TRACE(std::to_string(src) + "->" + std::to_string(dst));
      int node = src;
      int hops = 0;
      bool column_reached = src % cols == dst % cols;
      while (node != dst) {
        const int next = t.NextHop(node, dst);
        const auto& nb = t.neighbors(node);
        ASSERT_NE(std::find(nb.begin(), nb.end(), next), nb.end())
            << next << " is not a neighbour of " << node;
        if (!column_reached) {
          EXPECT_EQ(next / cols, node / cols) << "left the row at " << node;
        } else {
          EXPECT_EQ(next % cols, dst % cols) << "left the column at " << node;
        }
        column_reached = next % cols == dst % cols;
        node = next;
        ASSERT_LE(++hops, n) << "routing loop";
      }
      EXPECT_EQ(hops, t.Distance(src, dst));
    }
  }
}

TEST(TopologyTest, MeshRoutesWalkTheRowFirst) {
  ExpectDimensionOrderRoutes(Topology::Mesh(2, 4), 4);
  ExpectDimensionOrderRoutes(Topology::Mesh(4, 4), 4);
  ExpectDimensionOrderRoutes(Topology::Mesh(3, 5), 5);
}

TEST(TopologyTest, TorusRoutesWalkTheRowFirstTheShortWayRound) {
  ExpectDimensionOrderRoutes(Topology::Torus(4, 4), 4);
  ExpectDimensionOrderRoutes(Topology::Torus(3, 5), 5);
  ExpectDimensionOrderRoutes(Topology::Torus(2, 4), 4);  // No row wrap.
  const Topology t = Topology::Torus(4, 4);
  EXPECT_EQ(t.NextHop(0, 3), 3);   // Wrap link: 1 hop, not 3.
  EXPECT_EQ(t.NextHop(0, 2), 1);   // Tie (2 either way): increasing index.
  EXPECT_EQ(t.NextHop(3, 1), 0);   // Tie from column 3: wraps to 0.
  EXPECT_EQ(t.NextHop(0, 8), 4);   // Tie along the column: row 1.
}

TEST(TopologyTest, MeshSplitsConvergingLoadOverBothCornerLinks) {
  // The 8-PE machine's 2x4 mesh: a result converging on PE 0 arrives
  // from row 0 over 1->0 and from row 1 over 4->0.
  const Topology t = Topology::Mesh(2, 4);
  for (int pe = 1; pe < 8; ++pe) {
    int node = pe;
    while (t.NextHop(node, 0) != 0) node = t.NextHop(node, 0);
    EXPECT_EQ(node, pe < 4 ? 1 : 4) << "PE " << pe;
  }
}

/// First hops of a BFS that prefers the lowest neighbour id.
std::vector<std::vector<int>> LowestIdBfsHops(const Topology& t) {
  const int n = t.num_nodes();
  std::vector<std::vector<int>> hop(n, std::vector<int>(n, -1));
  for (int src = 0; src < n; ++src) {
    hop[src][src] = src;
    std::vector<int> frontier = {src};
    for (size_t i = 0; i < frontier.size(); ++i) {
      const int u = frontier[i];
      std::vector<int> nb = t.neighbors(u);
      std::sort(nb.begin(), nb.end());
      for (const int v : nb) {
        if (hop[src][v] != -1) continue;
        hop[src][v] = u == src ? v : hop[src][u];
        frontier.push_back(v);
      }
    }
  }
  return hop;
}

TEST(TopologyTest, RingAndChordalRingKeepLowestIdBfsRoutes) {
  for (const Topology& t : {Topology::Ring(10), Topology::ChordalRing(16, 4),
                            Topology::ChordalRing(32, 5)}) {
    const auto hops = LowestIdBfsHops(t);
    for (int src = 0; src < t.num_nodes(); ++src) {
      for (int dst = 0; dst < t.num_nodes(); ++dst) {
        EXPECT_EQ(t.NextHop(src, dst), hops[src][dst])
            << t.name() << " " << src << "->" << dst;
      }
    }
  }
}

TEST(TopologyTest, DistanceSymmetricOnUndirectedGraphs) {
  Topology t = Topology::ChordalRing(32, 5);
  for (int a = 0; a < 32; ++a) {
    for (int b = 0; b < 32; ++b) {
      EXPECT_EQ(t.Distance(a, b), t.Distance(b, a));
    }
  }
}

TEST(TopologyTest, AverageDistanceOrderingAcrossTopologies) {
  // More connectivity => shorter average paths.
  const double full = Topology::FullyConnected(64).AverageDistance();
  const double torus = Topology::Torus(8, 8).AverageDistance();
  const double mesh = Topology::Mesh(8, 8).AverageDistance();
  const double ring = Topology::Ring(64).AverageDistance();
  EXPECT_LT(full, torus);
  EXPECT_LT(torus, mesh);
  EXPECT_LT(mesh, ring);
}

// -------------------------------------------------------------- Network

TEST(NetworkTest, DeliversWithSerializationAndPropagationDelay) {
  sim::Simulator sim;
  LinkParams params;
  params.bandwidth_bps = 10'000'000;
  params.propagation_ns = 1'000;
  Network net(&sim, Topology::Mesh(2, 2), params);

  sim::SimTime delivered_at = -1;
  net.SetReceiver(1, [&](const Message& m) {
    delivered_at = sim.now();
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.dst, 1);
  });
  net.SendPacket(0, 1);
  sim.Run();
  // 256 bits / 10 Mbit/s = 25.6 us -> 25600 ns, + 1000 ns propagation.
  EXPECT_EQ(delivered_at, 26'600);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  EXPECT_EQ(net.stats().total_latency_ns, 26'600);
}

TEST(NetworkTest, MultiHopLatencyScalesWithDistance) {
  auto latency_to = [](NodeId dst) {
    sim::Simulator sim;
    Network net(&sim, Topology::Ring(8), LinkParams());
    sim::SimTime t = -1;
    net.SetReceiver(dst, [&](const Message&) { t = sim.now(); });
    net.SendPacket(0, dst);
    sim.Run();
    return t;
  };
  const sim::SimTime t1 = latency_to(1);
  const sim::SimTime t4 = latency_to(4);
  ASSERT_GT(t1, 0);
  ASSERT_GT(t4, 0);
  // 4 hops vs 1 hop: the distant delivery takes exactly 4x as long under
  // store-and-forward with no contention.
  EXPECT_NEAR(static_cast<double>(t4) / t1, 4.0, 0.01);
}

TEST(NetworkTest, LinkContentionSerializesMessages) {
  sim::Simulator sim;
  Network net(&sim, Topology::Ring(4), LinkParams());
  std::vector<sim::SimTime> deliveries;
  net.SetReceiver(1, [&](const Message&) { deliveries.push_back(sim.now()); });
  // Two packets queued on the same link back to back.
  net.SendPacket(0, 1);
  net.SendPacket(0, 1);
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  // Second waits for the first's serialization (25.6us), not propagation.
  EXPECT_EQ(deliveries[1] - deliveries[0], 25'600);
  EXPECT_GE(net.stats().max_link_backlog, 2);
}

TEST(NetworkTest, LocalDeliveryBypassesLinks) {
  sim::Simulator sim;
  Network net(&sim, Topology::Mesh(2, 2), LinkParams());
  bool got = false;
  net.SetReceiver(2, [&](const Message&) { got = true; });
  net.Send(2, 2, 1024, std::any());
  sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.stats().link_bits, 0);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST(NetworkTest, LargeMessageOccupiesLinkLonger) {
  sim::Simulator sim;
  Network net(&sim, Topology::Ring(4), LinkParams());
  sim::SimTime small_t = -1, big_t = -1;
  {
    net.SetReceiver(1, [&](const Message& m) {
      if (m.size_bits == 256) small_t = sim.now() - m.sent_at;
      else big_t = sim.now() - m.sent_at;
    });
  }
  net.Send(0, 1, 256, std::any());
  sim.Run();
  net.Send(0, 1, 256 * 100, std::any());
  sim.Run();
  EXPECT_GT(big_t, small_t * 50);
}

TEST(NetworkTest, LinkBitsCountsEveryHop) {
  sim::Simulator sim;
  Network net(&sim, Topology::Ring(8), LinkParams());
  net.SendPacket(0, 4);  // 4 hops.
  sim.Run();
  EXPECT_EQ(net.stats().link_bits, 4 * 256);
}

// -------------------------------------------------------------- Traffic

TEST(TrafficTest, DeterministicForSeed) {
  Topology topo = Topology::Mesh(4, 4);
  TrafficConfig cfg;
  cfg.offered_packets_per_sec_per_pe = 5'000;
  cfg.warmup_ns = 5 * sim::kNanosPerMilli;
  cfg.measure_ns = 20 * sim::kNanosPerMilli;
  cfg.seed = 3;
  TrafficResult a = RunSyntheticTraffic(topo, LinkParams(), cfg);
  TrafficResult b = RunSyntheticTraffic(topo, LinkParams(), cfg);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_DOUBLE_EQ(a.average_latency_us, b.average_latency_us);
  EXPECT_GT(a.packets_delivered, 0u);
}

TEST(TrafficTest, LightLoadDeliversOffered) {
  TrafficConfig cfg;
  cfg.offered_packets_per_sec_per_pe = 2'000;
  cfg.warmup_ns = 10 * sim::kNanosPerMilli;
  cfg.measure_ns = 50 * sim::kNanosPerMilli;
  TrafficResult r =
      RunSyntheticTraffic(Topology::Mesh(8, 8), LinkParams(), cfg);
  // Under light load the network delivers what is offered (within Poisson
  // noise over the measurement window).
  EXPECT_NEAR(r.delivered_packets_per_sec_per_pe, 2'000, 200);
  EXPECT_GT(r.average_latency_us, 0);
}

TEST(TrafficTest, SaturationCapsThroughput) {
  TrafficConfig low;
  low.offered_packets_per_sec_per_pe = 5'000;
  TrafficConfig high = low;
  high.offered_packets_per_sec_per_pe = 200'000;
  const Topology topo = Topology::Mesh(8, 8);
  TrafficResult rl = RunSyntheticTraffic(topo, LinkParams(), low);
  TrafficResult rh = RunSyntheticTraffic(topo, LinkParams(), high);
  // Delivered throughput saturates far below the absurd offered load, and
  // latency explodes past saturation.
  EXPECT_LT(rh.delivered_packets_per_sec_per_pe, 100'000);
  EXPECT_GT(rh.average_latency_us, 10 * rl.average_latency_us);
  EXPECT_GT(rh.peak_link_utilization, 0.95);
}

TEST(TrafficTest, NeighborPatternOutperformsTranspose) {
  TrafficConfig cfg;
  cfg.offered_packets_per_sec_per_pe = 20'000;
  TrafficConfig nb = cfg;
  nb.pattern = TrafficPattern::kNeighbor;
  TrafficConfig tr = cfg;
  tr.pattern = TrafficPattern::kTranspose;
  const Topology topo = Topology::Mesh(8, 8);
  TrafficResult rn = RunSyntheticTraffic(topo, LinkParams(), nb);
  TrafficResult rt = RunSyntheticTraffic(topo, LinkParams(), tr);
  // Single-hop traffic sustains the load; transpose saturates the bisection.
  EXPECT_GT(rn.delivered_packets_per_sec_per_pe,
            rt.delivered_packets_per_sec_per_pe);
}

TEST(TrafficTest, HotspotCongestsAroundTarget) {
  TrafficConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.hotspot_fraction = 0.5;
  cfg.offered_packets_per_sec_per_pe = 20'000;
  TrafficConfig uni = cfg;
  uni.pattern = TrafficPattern::kUniform;
  const Topology topo = Topology::Mesh(8, 8);
  TrafficResult rh = RunSyntheticTraffic(topo, LinkParams(), cfg);
  TrafficResult ru = RunSyntheticTraffic(topo, LinkParams(), uni);
  EXPECT_LT(rh.delivered_packets_per_sec_per_pe,
            ru.delivered_packets_per_sec_per_pe);
}

// ---------------------------------------------------------------- Faults

TEST(FaultTest, DropProbabilityOneLosesEveryMessage) {
  sim::Simulator sim;
  Network net(&sim, Topology::FullyConnected(2));
  FaultPlan plan;
  plan.link.drop_probability = 1.0;
  net.SetFaultPlan(plan);
  int delivered = 0;
  net.SetReceiver(1, [&](const Message&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.SendPacket(0, 1);
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.stats().dropped, 10u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(FaultTest, LoopbackIsNeverFaulted) {
  sim::Simulator sim;
  Network net(&sim, Topology::FullyConnected(2));
  FaultPlan plan;
  plan.link.drop_probability = 1.0;
  net.SetFaultPlan(plan);
  int delivered = 0;
  net.SetReceiver(0, [&](const Message&) { ++delivered; });
  net.SendPacket(0, 0);  // A PE's internal bus cannot lose messages.
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(FaultTest, DuplicatesInjectExtraDeliveries) {
  sim::Simulator sim;
  Network net(&sim, Topology::FullyConnected(2));
  FaultPlan plan;
  plan.seed = 11;
  plan.link.duplicate_probability = 0.5;
  net.SetFaultPlan(plan);
  int delivered = 0;
  net.SetReceiver(1, [&](const Message&) { ++delivered; });
  for (int i = 0; i < 100; ++i) net.SendPacket(0, 1);
  sim.Run();
  // On a single hop with no drops, every copy arrives: deliveries are the
  // originals plus exactly the injected duplicates.
  EXPECT_GT(net.stats().duplicated, 0u);
  EXPECT_EQ(static_cast<uint64_t>(delivered), 100 + net.stats().duplicated);
}

TEST(FaultTest, JitterAddsExactlyTheDrawnDelay) {
  auto total_latency = [](const FaultPlan* plan, sim::SimTime* delayed) {
    sim::Simulator sim;
    Network net(&sim, Topology::FullyConnected(2));
    if (plan != nullptr) net.SetFaultPlan(*plan);
    net.SetReceiver(1, [](const Message&) {});
    for (int i = 0; i < 8; ++i) net.SendPacket(0, 1);
    sim.Run();
    *delayed = net.stats().delayed_ns;
    return net.stats().total_latency_ns;
  };
  sim::SimTime baseline_jitter = 0;
  const sim::SimTime baseline = total_latency(nullptr, &baseline_jitter);
  EXPECT_EQ(baseline_jitter, 0);

  FaultPlan plan;
  plan.seed = 5;
  plan.link.max_extra_delay_ns = 40'000;
  sim::SimTime jitter = 0;
  const sim::SimTime jittered = total_latency(&plan, &jitter);
  // Jitter stretches arrivals without occupying the link, so the latency
  // sum grows by exactly the drawn extra delay.
  EXPECT_GT(jitter, 0);
  EXPECT_EQ(jittered, baseline + jitter);
}

TEST(FaultTest, DownWindowDropsEverythingInside) {
  sim::Simulator sim;
  Network net(&sim, Topology::FullyConnected(2));
  FaultPlan plan;
  LinkDownWindow window;
  window.a = 0;
  window.b = 1;
  window.from_ns = 0;
  window.until_ns = sim::kNanosPerMilli;
  plan.down_windows.push_back(window);
  net.SetFaultPlan(plan);
  int delivered = 0;
  net.SetReceiver(0, [&](const Message&) { ++delivered; });
  net.SetReceiver(1, [&](const Message&) { ++delivered; });
  net.SendPacket(0, 1);                  // Inside the outage.
  net.SendPacket(1, 0);                  // Windows are bidirectional.
  sim.Schedule(2 * sim::kNanosPerMilli, [&] { net.SendPacket(0, 1); });
  sim.Run();
  EXPECT_EQ(delivered, 1);  // Only the post-outage send arrives.
  EXPECT_EQ(net.stats().dropped, 2u);
}

TEST(FaultTest, ExemptMessagesBypassFaultInjection) {
  sim::Simulator sim;
  Network net(&sim, Topology::FullyConnected(2));
  FaultPlan plan;
  plan.link.drop_probability = 1.0;
  net.SetFaultPlan(plan);
  net.SetFaultExempt([](const Message&) { return true; });
  int delivered = 0;
  net.SetReceiver(1, [&](const Message&) { ++delivered; });
  net.SendPacket(0, 1);
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().dropped, 0u);
}

TEST(FaultTest, SameSeedSameOutcomeDifferentSeedDiverges) {
  struct Outcome {
    uint64_t delivered, dropped, duplicated;
    sim::SimTime delayed_ns, total_latency_ns;
    bool operator==(const Outcome& o) const {
      return delivered == o.delivered && dropped == o.dropped &&
             duplicated == o.duplicated && delayed_ns == o.delayed_ns &&
             total_latency_ns == o.total_latency_ns;
    }
  };
  auto run = [](uint64_t seed) {
    sim::Simulator sim;
    Network net(&sim, Topology::Mesh(2, 2));
    FaultPlan plan;
    plan.seed = seed;
    plan.link.drop_probability = 0.3;
    plan.link.duplicate_probability = 0.2;
    plan.link.max_extra_delay_ns = 20'000;
    net.SetFaultPlan(plan);
    for (int node = 0; node < 4; ++node) {
      net.SetReceiver(node, [](const Message&) {});
    }
    for (int i = 0; i < 100; ++i) net.SendPacket(i % 4, (i + 3) % 4);
    sim.Run();
    const Network::Stats& s = net.stats();
    return Outcome{s.messages_delivered, s.dropped, s.duplicated,
                   s.delayed_ns, s.total_latency_ns};
  };
  EXPECT_TRUE(run(42) == run(42));
  EXPECT_FALSE(run(42) == run(43));
}

TEST(NetworkTest, BacklogWatermarkCountsBackpressure) {
  sim::Simulator sim;
  LinkParams params;
  params.max_link_backlog = 2;
  Network net(&sim, Topology::FullyConnected(2), params);
  int delivered = 0;
  net.SetReceiver(1, [&](const Message&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.SendPacket(0, 1);
  sim.Run();
  // The first two sends fit under the watermark; the other eight trip it
  // but are still queued (shedding is opt-in).
  EXPECT_EQ(net.stats().backpressure, 8u);
  EXPECT_EQ(delivered, 10);
}

TEST(NetworkTest, BacklogWatermarkCanShedLoad) {
  sim::Simulator sim;
  LinkParams params;
  params.max_link_backlog = 2;
  params.drop_on_backlog = true;
  Network net(&sim, Topology::FullyConnected(2), params);
  int delivered = 0;
  net.SetReceiver(1, [&](const Message&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.SendPacket(0, 1);
  sim.Run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().backpressure, 8u);
  EXPECT_EQ(net.stats().dropped, 8u);
}

TEST(NetworkTest, MissingReceiverIsCountedNotSilent) {
  sim::Simulator sim;
  Network net(&sim, Topology::FullyConnected(2));
  net.SendPacket(0, 1);  // Nobody installed a receiver at node 1.
  sim.Run();
  EXPECT_EQ(net.stats().no_receiver, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

}  // namespace
}  // namespace prisma::net
