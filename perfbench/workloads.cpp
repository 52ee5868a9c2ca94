#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch_large", "service_cold",
                                                 "service_recurring", "plan_paper"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "batch_large") return make_batch_large();
  if (name == "service_cold") return make_service_cold();
  if (name == "service_recurring") return make_service_recurring();
  if (name == "plan_paper") return make_plan_paper();
  return nullptr;
}

}  // namespace perfbench
