// Fixture for D10: one receiver and one sender per process header. Their
// nested types, parameters and the type's own definition are no members.
namespace fixture {

class StreamSender final {
 public:
  struct Options {};
};

class Producer {
 private:
  StreamSender::Options OutOptions();
  void Take(StreamReceiver::Delivery& delivery);
  std::optional<StreamReceiver> in_;
  StreamSender out_;
};

}  // namespace fixture
