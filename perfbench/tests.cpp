// Tests of the benchmark's helpers and a smoke-size run of every workload
// through its correctness gates. Build target ssbench_tests; run with no
// arguments (exit code 0 = all passed) or name single tests.
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "  FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median_quartiles() {
  check(pb::median({}) == 0.0, "median of nothing");
  check(pb::median({3.0}) == 3.0, "median of one");
  check(pb::median({4.0, 1.0, 3.0}) == 3.0, "odd median");
  check(pb::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  // Reference values: Python statistics.quantiles(v, n=4).
  auto q = pb::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
        "quartiles of 1..10");
  q = pb::quartiles({10, 1, 7, 3});
  check(near(q[0], 1.5) && near(q[1], 5.0) && near(q[2], 9.25),
        "quartiles of an unsorted even sample");
  q = pb::quartiles({5, 9});
  check(near(q[0], 4.0) && near(q[1], 7.0) && near(q[2], 10.0),
        "quartiles of two samples extrapolate like Python's");
  check(near(pb::relative_spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
             5.5 / 5.5),
        "relative spread");
}

void test_tail_percentile() {
  std::vector<double> v;
  for (int i = 0; i < 19; ++i) v.push_back(i);
  check(!pb::tail_percentile(v).has_value(), "19 samples support no tail");
  v.push_back(19);
  auto t = pb::tail_percentile(v);
  check(t && t->percentile == 50.0 && near(t->value, 9.5),
        "20 samples support the median");
  v.clear();
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  t = pb::tail_percentile(v);
  check(t && t->percentile == 99.0 && near(t->value, 989.01),
        "1000 samples support p99 (10 beyond), not p99.9");
  t = pb::tail_percentile(v, 100);
  check(t && t->percentile == 90.0, "100 beyond needs p90 at 1000 samples");
  check(near(pb::percentile({0, 10}, 25.0), 2.5), "interpolated percentile");
}

pb::Span span(double start, double end, int parent) {
  return pb::Span{"x.y", start, end, parent, 0, {}};
}

void test_self_time() {
  // root [0,10]; children [1,3] and [2,5] overlap (parallel workers), [8,12]
  // overruns the root; grandchild [1.5,2] only reduces its parent.
  const std::vector<pb::Span> spans = {span(0, 10, -1), span(1, 3, 0),
                                       span(2, 5, 0), span(8, 12, 0),
                                       span(1.5, 2, 1)};
  const auto self = pb::self_times(spans);
  check(near(self[0], 10.0 - 4.0 - 2.0), "root self time merges children");
  check(near(self[1], 2.0 - 0.5), "child self time");
  check(near(self[2], 3.0) && near(self[3], 4.0), "leaf self time");
  check(near(self[4], 0.5), "grandchild self time");
  pb::Tracer off(false);
  check(off.begin("a.b") == -1 && off.spans().empty(),
        "disabled tracer records nothing");
  pb::Tracer on(true);
  {
    pb::Scope outer(on, "a.outer");
    pb::Scope inner(on, "b.inner", outer.id());
    inner.count("n", 2);
    inner.count("n", 3);
  }
  const auto rec = on.spans();
  check(rec.size() == 2 && rec[1].parent == 0 && rec[1].counts.at("n") == 5 &&
            rec[1].layer() == "b" && rec[0].end >= rec[1].end,
        "scopes nest, counts add");
}

void smoke(pb::Outcome (*fn)(const pb::RunConfig&, pb::Tracer&),
           bool trace) {
  pb::RunConfig cfg;
  cfg.seed = 3;
  cfg.seconds = 0.0;
  cfg.smoke = true;
  cfg.trace = trace;
  pb::Tracer tracer(trace);
  const pb::Outcome out = fn(cfg, tracer);
  for (const auto& f : out.failures) check(false, "gate: " + f);
  check(out.attempted > 0, "operations attempted");
  check(out.failed == 0, "no operation failed");
  for (const pb::MetricDef& m : pb::metric_catalogue()) {
    if (!trace && m.kind == pb::MetricKind::kEndToEnd) {
      const auto it = out.metrics.find(std::string(m.name));
      check(it != out.metrics.end() && it->second > 0.0,
            "end-to-end metric " + std::string(m.name) + " measured");
    }
  }
  if (trace) check(!tracer.spans().empty(), "traced run recorded spans");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::pair<std::string, std::function<void()>>> tests = {
      {"median_quartiles", test_median_quartiles},
      {"tail_percentile", test_tail_percentile},
      {"self_time", test_self_time},
      {"smoke_verify", [] { smoke(pb::run_verify, false); }},
      {"smoke_verify_traced", [] { smoke(pb::run_verify, true); }},
      {"smoke_modelgap", [] { smoke(pb::run_modelgap, false); }},
      {"smoke_modelgap_traced", [] { smoke(pb::run_modelgap, true); }},
      {"smoke_cst", [] { smoke(pb::run_cst, false); }},
      {"smoke_cst_traced", [] { smoke(pb::run_cst, true); }},
      {"smoke_serve", [] { smoke(pb::run_serve, false); }},
      {"smoke_serve_traced", [] { smoke(pb::run_serve, true); }},
  };
  int ran = 0;
  for (const auto& [name, fn] : tests) {
    bool selected = argc < 2;
    for (int i = 1; i < argc; ++i) selected |= name == argv[i];
    if (!selected) continue;
    const int before = g_failures;
    fn();
    ++ran;
    std::cout << (g_failures == before ? "PASS " : "FAIL ") << name << '\n';
  }
  std::cout << ran << " tests, " << g_failures << " failed checks\n";
  return g_failures == 0 && ran > 0 ? 0 : 1;
}
