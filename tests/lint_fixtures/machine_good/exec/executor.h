// Fixture for D12: outside gdh/, an execution layer's options are its own
// and may hold a cost model.
#ifndef MACHINE_GOOD_EXEC_EXECUTOR_H_
#define MACHINE_GOOD_EXEC_EXECUTOR_H_

struct Config {
  pool::CostModel costs;
};

#endif  // MACHINE_GOOD_EXEC_EXECUTOR_H_
