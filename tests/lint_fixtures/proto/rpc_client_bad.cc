// Bad D6 citizen behind the shared transport's RpcClient table: the
// contract names no exhaustion path, so a request whose retry budget runs
// out would be orphaned. Moving the table into the helper must not hide
// that from D6.
#include <string>

template <typename Target>
class RpcClient {
 public:
  void Send(int id, Target target);
  bool Settle(int id);
  void SettleAll();
};

// PRISMA_SETTLES(calls_: success=SettleCall, shed=Shutdown)
RpcClient<std::string> calls_;

void Register(int id) {
  calls_.Send(id, "emp#0");
}

void SettleCall(int id) {
  calls_.Settle(id);
}

void Shutdown() {
  calls_.SettleAll();
}
