// Static reconfiguration-plan checker CLI.
//
// Symbolically executes the plan of every shipped reconfiguration (each
// generated from the step table of the transaction engine in
// src/reconfig/transaction.cpp) over the abstract configuration state and
// reports, per step boundary, which of
// invariants 1-7 are established (E), preserved (P), or violated (V). Runs
// in milliseconds with no simulator -- made for a fast per-PR CI gate.
//
//   tools/plan_check                 check every shipped plan (text)
//   tools/plan_check --json          same, machine-readable
//   tools/plan_check --plan NAME     check one plan (broken one included)
//   tools/plan_check --list          list plan names
//   tools/plan_check --include-broken  also run the seeded broken plans
//                                      (expected FAIL; exit 1)
//
// Exit status: 0 = every checked plan passed, 1 = a plan violated an
// invariant (diagnostics printed), 2 = bad usage / unknown plan.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "verify/checker.hpp"
#include "verify/plan.hpp"

namespace {

using surgeon::verify::Plan;
using surgeon::verify::PlanReport;

void print_usage(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " [--list] [--plan NAME] [--json] [--include-broken]\n"
        "  --list            list plan names and exit\n"
        "  --plan NAME       check a single plan by name\n"
        "  --json            machine-readable diagnostics\n"
        "  --include-broken  also check the seeded broken plans\n"
        "                    (they must FAIL; exit becomes 1)\n"
        "  --help            print this message and exit\n"
        "\n"
        "exit status: 0 = every checked plan passed,\n"
        "             1 = a plan violated an invariant,\n"
        "             2 = usage error or unknown plan\n";
}

std::vector<Plan> all_plans(bool include_broken) {
  std::vector<Plan> plans = surgeon::verify::shipped_plans();
  if (include_broken) {
    plans.push_back(surgeon::verify::plan_broken_rebind_before_divulge());
    plans.push_back(surgeon::verify::plan_broken_adopt_before_divulge());
  }
  return plans;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool json = false;
  bool include_broken = false;
  std::string only;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0], std::cout);
      return 0;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--include-broken") == 0) {
      include_broken = true;
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--plan needs a value\n";
        print_usage(argv[0], std::cerr);
        return 2;
      }
      only = argv[++i];
    } else {
      print_usage(argv[0], std::cerr);
      return 2;
    }
  }

  std::vector<Plan> plans = all_plans(include_broken || !only.empty());
  if (list) {
    for (const Plan& p : plans) {
      std::cout << p.name << " -- " << p.description << "\n";
    }
    return 0;
  }
  if (!only.empty()) {
    std::vector<Plan> picked;
    for (Plan& p : plans) {
      if (p.name == only) picked.push_back(std::move(p));
    }
    if (picked.empty()) {
      std::cerr << "unknown plan '" << only << "' (see --list)\n";
      return 2;
    }
    plans = std::move(picked);
  } else if (!include_broken) {
    plans = all_plans(false);
  }

  bool all_ok = true;
  if (json) std::cout << "[";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const PlanReport report = surgeon::verify::check_plan(plans[i]);
    all_ok = all_ok && report.ok;
    if (json) {
      if (i != 0) std::cout << ",";
      std::cout << report.to_json();
    } else {
      if (i != 0) std::cout << "\n";
      std::cout << report.to_text();
    }
  }
  if (json) std::cout << "]\n";
  return all_ok ? 0 : 1;
}
