// Fixture for D10: the transport's receiver owns the channels.
namespace fixture {

class StreamReceiver {
 public:
  bool Done(int side) const;

 private:
  std::map<int, std::vector<exec::InboundChannel>> sides_;
};

}  // namespace fixture
