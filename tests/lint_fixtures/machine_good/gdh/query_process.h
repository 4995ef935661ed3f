// Fixture for D12: the machine's settings travel as one MachineParams, which
// may itself hold every one of them; a Config names the types only in
// comments ("pool::CostModel costs;") and strings.
#ifndef MACHINE_GOOD_GDH_QUERY_PROCESS_H_
#define MACHINE_GOOD_GDH_QUERY_PROCESS_H_

struct MachineParams {
  OptimizerRules rules;
  RetransmitPolicy retransmit;
  exec::TcAlgorithm fixpoint_algorithm = exec::TcAlgorithm::kSeminaive;
  PeLocalRegistry* registry = nullptr;
  PlanCache* plan_cache = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

class QueryProcess {
 public:
  struct Config {
    const DataDictionary* dictionary = nullptr;
    const char* note = "pool::CostModel costs;";
    MachineParams machine;
  };

  explicit QueryProcess(Config config);

 private:
  // Derived state outside the Config is not a copy of its settings.
  OptimizerRules effective_rules_;
};

#endif  // MACHINE_GOOD_GDH_QUERY_PROCESS_H_
