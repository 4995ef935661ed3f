// Fixture for D10: a consumer receives through the StreamReceiver; naming
// exec::InboundChannel in a comment or a string is not holding one.
namespace fixture {

struct Partition {
  StreamReceiver in;
  const char* note = "no exec::InboundChannel here";

  bool RoundDone(int side) const { return in.Done(side); }
};

}  // namespace fixture
