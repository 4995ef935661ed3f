// Bad D7 citizen: answering a prepared transaction before its decision is
// logged. The site is annotated, but kPreparing->kCommitted is not in the
// table, so the assignment fires D7.
// PRISMA_STATE_MACHINE(Vote: init->kActive, kActive->kPreparing,
//                      kPreparing->kCommitting, kCommitting->kCommitted)
enum class Vote { kActive, kPreparing, kCommitting, kCommitted };

struct Ballot {
  // PRISMA_TRANSITION(init, kActive, every ballot starts active)
  Vote vote = Vote::kActive;
};

void Decide(Ballot& b) {
  // PRISMA_TRANSITION(kActive, kPreparing, prepare round fans out)
  b.vote = Vote::kPreparing;
  // PRISMA_TRANSITION(kPreparing, kCommitting, the decision is logged)
  b.vote = Vote::kCommitting;
  // PRISMA_TRANSITION(kCommitting, kCommitted, answered at the decision)
  b.vote = Vote::kCommitted;
}

void AnswerEarly(Ballot& b) {
  // PRISMA_TRANSITION(kPreparing, kCommitted, skips the decision log)
  b.vote = Vote::kCommitted;
}
