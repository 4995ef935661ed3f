// Fixture for D10: the channel's own header may name it.
namespace fixture::exec {

class InboundChannel {
 public:
  bool done() const { return done_; }

 private:
  bool done_ = false;
};

}  // namespace fixture::exec
