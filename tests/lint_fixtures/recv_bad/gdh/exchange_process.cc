// Fixture for D10: a consumer that keeps its own inbound channels, as the
// hand-rolled receivers did, is flagged at every line naming one.
namespace fixture {

struct Consumer {
  std::vector<exec::InboundChannel> build_channels;
  exec::InboundChannel resync_in;

  void Drain() {
    for (exec::InboundChannel& channel : build_channels) {
      channel.TakeReady();
    }
  }
};

}  // namespace fixture
