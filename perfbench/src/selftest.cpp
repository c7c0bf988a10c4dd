// Self-tests of the benchmark's own arithmetic on synthetic inputs.
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>

#include "common.hpp"

namespace pb {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  expect(near(percentile(xs, 0.5), 50), "p50 of 1..100 is 50");
  expect(near(percentile(xs, 0.9), 90), "p90 of 1..100 is 90");
  expect(near(percentile(xs, 0.99), 99), "p99 of 1..100 is 99");
  expect(near(percentile(xs, 1.0), 100), "p100 is the maximum");
  expect(near(percentile({7}, 0.99), 7), "one sample is every percentile");
  expect(near(percentile({}, 0.5), 0), "empty sample reads 0");
  expect(near(percentile({3, 1, 2}, 0.5), 2), "order of input is irrelevant");
  expect(samples_beyond(100, 0.9) == 10, "10 of 100 lie beyond p90");
  expect(samples_beyond(1000, 0.99) == 10, "10 of 1000 lie beyond p99");
  expect(samples_beyond(99, 0.9) == 9, "9 of 99 lie beyond p90");
  expect(samples_beyond(0, 0.5) == 0, "no samples, none beyond");
  expect(near(mean({1, 2, 3, 4}), 2.5), "mean");
}

void test_self_time() {
  expect(self_time(0, 100, {}) == 100, "no children: self = duration");
  expect(self_time(0, 100, {{10, 30}, {50, 60}}) == 70,
         "disjoint children are subtracted");
  expect(self_time(0, 100, {{10, 30}, {20, 40}}) == 70,
         "overlapping children count once");
  expect(self_time(0, 100, {{-20, 10}, {90, 150}}) == 80,
         "children are clipped to the parent");
  expect(self_time(0, 100, {{0, 100}}) == 0, "a child covering all of it");
  expect(self_time(50, 40, {}) == 0, "an inverted span has no self time");
}

void test_ladder_rule() {
  const LadderLimits lim;
  StepOutcome s;
  s.rate = 1000;
  s.offered = 1000;
  s.failed = 10;
  s.p99_ms = 50.0;
  s.drained = true;
  expect(step_passes(s, lim), "exactly at both limits passes");
  s.failed = 11;
  expect(!step_passes(s, lim), "1.1% failed fails");
  s.failed = 0;
  s.p99_ms = 50.01;
  expect(!step_passes(s, lim), "p99 over 50 ms fails");
  s.p99_ms = 5;
  s.drained = false;
  expect(!step_passes(s, lim), "an undrained backlog fails");
  s.drained = true;
  s.aborted = true;
  expect(!step_passes(s, lim), "an aborted step fails");
  s.aborted = false;
  s.offered = 0;
  expect(!step_passes(s, lim), "a step that offered nothing fails");

  std::vector<double> lat(98, 5.0);
  expect(std::isinf(p99_with_failures(lat, 2)),
         "2 failures in 100 push p99 to infinity");
  expect(near(p99_with_failures(std::vector<double>(99, 5.0), 1), 5.0),
         "1 failure in 100 leaves p99 finite");
  expect(near(p99_with_failures(std::vector<double>(200, 5.0), 1), 5.0),
         "1 failure in 201 leaves p99 finite");
}

void test_outage() {
  // Crash at t=1000; survivor A first delivers a post-crash update at
  // 1500, survivor B at 1800 (its 900 delivery is of a pre-crash update).
  const std::vector<std::vector<std::pair<Micros, Micros>>> s = {
      {{500, 1200}, {1100, 1500}, {1200, 1600}},
      {{600, 900}, {1050, 1800}},
  };
  expect(outage(1000, s) == 800, "outage = latest first post-crash delivery");
  expect(outage(1000, {{{1000, 1000}}}) == 0,
         "an update due at the crash counts");
  expect(outage(1000, {{{1100, 1500}}, {{900, 1300}}}) == -1,
         "a survivor without a post-crash delivery leaves no sample");
  expect(outage(1000, {}) == -1, "no survivors, no sample");
}

void test_payloads() {
  const auto p = make_payload(7, 12345);
  expect(p.size() == kPayloadBytes, "payloads are 64 bytes");
  expect(payload_index(p) == 12345, "payload carries its index");
  expect(payload_intact(7, p), "a fresh payload is intact");
  auto q = p;
  q[40] = q[40] ^ std::byte{1};
  expect(!payload_intact(7, q), "a flipped bit is caught");
  expect(!payload_intact(8, p), "another seed's payload is caught");
  expect(make_payload(7, 1) != make_payload(7, 2), "payloads differ by index");
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  test_percentiles();
  test_self_time();
  test_ladder_rule();
  test_outage();
  test_payloads();
  return g_failures;
}

}  // namespace pb
