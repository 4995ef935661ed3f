// Good D6 citizen behind the shared transport's RpcClient table: the
// table's owner declares the settlement triad, Send registers, and every
// declared path settles through Settle/SettleAll or delegates.
#include <string>

template <typename Target>
class RpcClient {
 public:
  void Send(int id, Target target);
  bool Settle(int id);
  void SettleAll();
};

// PRISMA_SETTLES(rpcs_: success=SettleRpc, exhaustion=RpcExhausted,
//                shed=Finish)
RpcClient<std::string> rpcs_;

void Register(int id) {
  rpcs_.Send(id, "emp#0");
}

bool SettleRpc(int id) {
  return rpcs_.Settle(id);
}

void RpcExhausted(int id) {
  SettleRpc(id);  // Degrades to kUnavailable, settling first.
}

void Finish() {
  rpcs_.SettleAll();
}
