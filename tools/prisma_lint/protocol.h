#ifndef PRISMA_TOOLS_PRISMA_LINT_PROTOCOL_H_
#define PRISMA_TOOLS_PRISMA_LINT_PROTOCOL_H_

#include <vector>

#include "lint.h"
#include "structure.h"

// Protocol-aware cross-file rules (see lint.h for the catalogue):
//   D0  annotation hygiene (unknown tags / markers are errors, not
//       silent no-ops).
//   D5  mail-handler totality over the kMail* wire protocol.
//   D6  RPC lifecycle: every outstanding-RPC registration has declared
//       settlement paths for success, exhaustion and shed.
//   D7  state-machine conformance against declared transition tables.
//   D8  metric/span names against the obs/metric_names.h registry.
//   D9  wire sizing: no WireBits() in gdh/messages.h sums row byte sizes.
//   D10 one receiver: exec::InboundChannel only inside the transport,
//       and one StreamReceiver and one StreamSender member per gdh
//       header.
//   D12 one copy of the machine's settings: gdh process Configs carry
//       one MachineParams, not its members.

namespace prisma::lint {

void CheckProtocolRules(const std::vector<PreparedFile>& files,
                        const std::vector<FileStructure>& structures,
                        std::vector<Diagnostic>* out);

}  // namespace prisma::lint

#endif  // PRISMA_TOOLS_PRISMA_LINT_PROTOCOL_H_
