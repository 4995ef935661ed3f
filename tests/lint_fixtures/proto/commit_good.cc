// Good D7 citizen: a commit lifecycle with a one-phase path and a
// two-phase path answered at the decision, every transition declared and
// exercised by an annotated site.
// PRISMA_STATE_MACHINE(CommitPhase: init->kActive, kActive->kOnePhase,
//                      kOnePhase->kCommitted, kActive->kPreparing,
//                      kPreparing->kCommitting, kCommitting->kCommitted)
enum class CommitPhase { kActive, kOnePhase, kPreparing, kCommitting,
                         kCommitted };

struct Commit {
  // PRISMA_TRANSITION(init, kActive, every commit starts active)
  CommitPhase phase = CommitPhase::kActive;
};

void OnePhase(Commit& c) {
  // PRISMA_TRANSITION(kActive, kOnePhase, the sole participant decides)
  c.phase = CommitPhase::kOnePhase;
  // PRISMA_TRANSITION(kOnePhase, kCommitted, its commit write landed)
  c.phase = CommitPhase::kCommitted;
}

void TwoPhase(Commit& c) {
  // PRISMA_TRANSITION(kActive, kPreparing, prepare round fans out)
  c.phase = CommitPhase::kPreparing;
  // PRISMA_TRANSITION(kPreparing, kCommitting, the decision is logged)
  c.phase = CommitPhase::kCommitting;
  // PRISMA_TRANSITION(kCommitting, kCommitted, answered at the decision)
  c.phase = CommitPhase::kCommitted;
}
