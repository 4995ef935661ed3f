// Fixture for D12: a process Config that copies the machine's settings
// field by field. Each copied member is flagged; the per-process fields,
// the nested spec and the forward declaration are not.
#ifndef MACHINE_BAD_GDH_QUERY_PROCESS_H_
#define MACHINE_BAD_GDH_QUERY_PROCESS_H_

struct Config;

class QueryProcess {
 public:
  struct Config {
    const DataDictionary* dictionary = nullptr;
    pool::CostModel costs;
    OptimizerRules rules{};
    RetransmitPolicy retransmit;
    exec::TcAlgorithm tc_algorithm = exec::TcAlgorithm::kSeminaive;
    const PeLocalRegistry* registry = nullptr;
    PlanCache* plan_cache = nullptr;
    struct Spec {
      int producers = 0;
    };
    Spec spec;
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer *tracer = nullptr;
  };

  explicit QueryProcess(Config config);
};

#endif  // MACHINE_BAD_GDH_QUERY_PROCESS_H_
