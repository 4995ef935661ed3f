// Fixture for D10: a process header that keeps a second receiver and a
// second sender is flagged at each second member, also inside
// std::optional or a member struct.
namespace fixture {

class Coordinator {
 private:
  struct SortedRuns {
    StreamReceiver in;
  };
  std::map<uint64_t, SortedRuns> runs_;
  std::optional<StreamReceiver> fx_in_;
  StreamSender shuffle_out_;
  StreamSender resync_out_;
};

}  // namespace fixture
